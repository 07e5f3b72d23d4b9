package experiments

import (
	"runtime"
	"testing"
	"time"
)

// The exact work a run does is a function of its seed alone: flight
// records written, allocation passes and the flows they visit, growth
// ticks skipped, and the flush stream by length and fold. These are
// read off the run's fingerprint and pinned at seed 1 of the three
// esgperf sim workloads, beside the digests bench/sim.go records. A
// change meant to alter the simulated behaviour re-records them in the
// same diff; one that only moves work must leave the flush stream as it
// is. Each runs at the process's P; `make procs` runs them at P = 1, 2,
// 4 and 8.

// TestWorkCountsTable1 runs sim-table1's op (bench/sim.go runTable1:
// Table 1's topology and 32 streams for three simulated minutes at the
// clean-spell loss rate, no show-floor faults).
func TestWorkCountsTable1(t *testing.T) {
	f := row{name: "sim-table1", run: func() (any, error) {
		c := DefaultTable1Config()
		c.Seed, c.Duration, c.ShowFloorFaults, c.CongestedLossRate = 2000, 3*time.Minute, false, c.WANLossRate
		return RunTable1(c)
	}}.runs(t, runtime.GOMAXPROCS(0))[0]
	checkWork(t, "sim-table1", f, work{core: 1454155, data: 422448, flushes: 422092, fold: "8e056b521a131aa9", skipped: 272})
}

// TestWorkCountsFigure8 runs sim-figure8's op (Figure 8's default
// configuration for two simulated hours).
func TestWorkCountsFigure8(t *testing.T) {
	f := row{name: "sim-figure8", run: func() (any, error) {
		c := DefaultFigure8Config()
		c.Duration = 2 * time.Hour
		return RunFigure8(c)
	}}.runs(t, runtime.GOMAXPROCS(0))[0]
	checkWork(t, "sim-figure8", f, work{core: 701789, data: 155410, flushes: 155494, fold: "3c6405ef4a797032", skipped: 1006146})
}

// TestWorkCountsScale1k runs sim-scale1k's op (S11 at 1024 clients, 4 MB
// files; its result is the allocation passes and the flows they visited).
func TestWorkCountsScale1k(t *testing.T) {
	f := row{name: "sim-scale1k", run: func() (any, error) {
		r, err := RunScale(3, []int{1024}, 4)
		if err != nil {
			return nil, err
		}
		return [2]uint64{r.AllocPasses[0], r.AllocFlows[0]}, nil
	}}.runs(t, runtime.GOMAXPROCS(0))[0]
	if want := "[50523 386427]"; f.result != want {
		t.Fatalf("sim-scale1k seed 1: allocation passes and flows %s; recorded %s", f.result, want)
	}
	checkWork(t, "sim-scale1k", f, work{flushes: 19794, fold: "ed94eb6aad643bad", skipped: 2048})
}

// work is what TestWorkCounts* pin of a run's fingerprint. ties (readers
// that met a skipped growth tick in an order the per-tick schedule leaves
// open) must be 0, or the run is no longer provably the per-tick run.
type work struct {
	core, data    uint64 // flight records written
	flushes       int
	fold          string
	skipped, ties uint64 // growth ticks the run's sleeping flows skipped
}

// checkWork compares a run's work with its recorded counts.
func checkWork(t *testing.T, op string, f fingerprint, want work) {
	t.Helper()
	if got := (work{f.core, f.data, len(f.flushes), f.fold(), f.skipped, f.ties}); got != want {
		t.Fatalf("%s seed 1: %+v; recorded %+v", op, got, want)
	}
}
