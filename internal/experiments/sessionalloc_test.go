package experiments

import "testing"

// sessionAllocCeiling bounds the heap allocations S11 makes per client
// session at 64 clients: the measured 99.9 allocations plus 10 %.
const sessionAllocCeiling = 110.0

// TestSessionAllocBudget holds a simulated GridFTP session's allocation
// cost. Conds, waiters, routes, control-line buffers and conn storage
// are recycled by the Sim, the Net and each ctrl rather than rebuilt per
// session, so what is left is what lives as long as the session does; a
// change that brings a per-session allocation back fails here, not only
// in esgperf's sim-scale1k op_allocs.
func TestSessionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's own")
	}
	const clients = 64
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		if _, e := RunScale(3, []int{clients}, 1); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocations = %.1f per client", allocs, allocs/clients)
	if per := allocs / clients; per > sessionAllocCeiling {
		t.Errorf("S11 at %d clients allocates %.1f objects per client, ceiling %.0f", clients, per, sessionAllocCeiling)
	}
}
