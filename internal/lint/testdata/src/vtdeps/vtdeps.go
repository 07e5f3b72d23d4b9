// Package vtdeps wraps the vtime twin behind an extra package boundary,
// so the vtheld fixture can prove may-block entries propagate across
// packages (not just across functions within one).
package vtdeps

import (
	"time"

	"esgrid/internal/vtime"
)

var clk vtime.Sim

// Fetch simulates a remote read: it parks on virtual time, so the
// may-block map must gain an entry for it.
func Fetch(d time.Duration) {
	clk.Sleep(d)
}

// Peek never blocks.
func Peek() int { return 0 }
