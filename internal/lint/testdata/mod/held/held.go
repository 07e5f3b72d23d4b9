// Package held injects one violation of each interprocedural invariant
// for the driver test: a lock held across a virtual-time block
// (vtblock), a bare goroutine spawn (managedgo), and a dead escape
// (staleescape).
package held

import (
	"sync"
	"time"

	"lintmod/internal/vtime"
)

type Gate struct {
	mu  sync.Mutex
	clk *vtime.Sim
	buf []int
}

func (g *Gate) HoldAcrossSleep(d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.clk.Sleep(d) // injected vtblock violation
}

func (g *Gate) BareSpawn() {
	go g.work() // injected managedgo violation
}

func (g *Gate) work() {}

func (g *Gate) Stale() int {
	return len(g.buf) //esglint:unordered injected stale escape; suppresses nothing
}
