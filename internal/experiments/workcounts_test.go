package experiments

import (
	"runtime"
	"testing"
	"time"
)

// The exact work a run does is a function of its seed alone: events
// through the core, records on the flight data ring (one per allocation
// pass and per connection transition), allocation passes and the flows
// they visit. These counts cannot be noisy, so they are pinned here, at
// seed 1 of the three esgperf sim workloads, beside the digests
// bench/sim.go records: an allocator change that silently skips
// or adds a pass fails go test ./..., not just a benchmark digest. A
// change meant to alter the simulated behaviour re-records them in the
// same diff.

// TestWorkCountsTable1 runs sim-table1's op (bench/sim.go runTable1:
// Table 1's topology and 32 streams for three simulated minutes at the
// clean-spell loss rate, no show-floor faults).
func TestWorkCountsTable1(t *testing.T) {
	defer onOneP(t)()
	c := DefaultTable1Config()
	c.Seed = 2000
	c.Duration = 3 * time.Minute
	c.ShowFloorFaults = false
	c.CongestedLossRate = c.WANLossRate
	r, err := RunTable1(c)
	if err != nil {
		t.Fatal(err)
	}
	const wantCore, wantData = 1454699, 422448
	if fs := r.Flight.Stats(); fs.CoreWritten != wantCore || fs.DataWritten != wantData {
		t.Fatalf("sim-table1 seed 1: %d core events, %d data records; recorded %d, %d",
			fs.CoreWritten, fs.DataWritten, wantCore, wantData)
	}
}

// TestWorkCountsFigure8 runs sim-figure8's op (Figure 8's default
// configuration for two simulated hours).
func TestWorkCountsFigure8(t *testing.T) {
	defer onOneP(t)()
	c := DefaultFigure8Config()
	c.Duration = 2 * time.Hour
	r, err := RunFigure8(c)
	if err != nil {
		t.Fatal(err)
	}
	const wantCore, wantData = 2714379, 155410
	if fs := r.Flight.Stats(); fs.CoreWritten != wantCore || fs.DataWritten != wantData {
		t.Fatalf("sim-figure8 seed 1: %d core events, %d data records; recorded %d, %d",
			fs.CoreWritten, fs.DataWritten, wantCore, wantData)
	}
}

// onOneP pins the test to one P, and skips it under the race detector:
// Table 1's striped writers and Figure 8's staged parallelism wake in
// cohorts whose order is a function of the seed only there (ROADMAP item
// 1). esgperf gates its sim workloads the same way.
func onOneP(t *testing.T) (restore func()) {
	t.Helper()
	skipUnderRace(t)
	old := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(old) }
}

// TestWorkCountsScale1k runs sim-scale1k's op (S11 at 1024 clients, 4 MB
// files). Its drivers are event-paced, so the counts hold on any P.
func TestWorkCountsScale1k(t *testing.T) {
	r, err := RunScale(3, []int{1024}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const wantPasses, wantFlows = 50523, 386427
	if r.AllocPasses[0] != wantPasses || r.AllocFlows[0] != wantFlows {
		t.Fatalf("sim-scale1k seed 1: %d allocation passes over %d flows; recorded %d, %d",
			r.AllocPasses[0], r.AllocFlows[0], wantPasses, wantFlows)
	}
}
