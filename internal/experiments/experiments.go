// Package experiments regenerates every table and figure of the paper's
// evaluation (§7), plus the ablation/sweep experiments DESIGN.md derives
// from the paper's claims. Each experiment builds its own simulated
// testbed on internal/grid (with the observers in rig.go), replays the
// workload, and returns typed results that cmd/esgbench formats as the
// paper's rows.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Gbps/Mbps format helpers.
func gbps(bps float64) string { return fmt.Sprintf("%.2f Gb/s", bps/1e9) }
func mbps(bps float64) string { return fmt.Sprintf("%.1f Mb/s", bps/1e6) }

// Row is one labeled result (a line of a paper table).
type Row struct {
	Label string
	Value string
}

// Table formats rows like the paper's Table 1.
func Table(title string, rows []Row) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	width := 0
	for _, r := range rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	b.WriteString(strings.Repeat("-", width+26) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", width, r.Label, r.Value)
	}
	return b.String()
}

// durSeconds formats a duration in whole seconds.
func durSeconds(d time.Duration) string {
	return fmt.Sprintf("%.0fs", d.Seconds())
}
