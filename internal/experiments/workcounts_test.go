package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
	"time"
)

// The exact work a run does is a function of its seed alone: events
// through the core, records on the flight data ring (one per allocation
// pass and per connection transition), allocation passes and the flows
// they visit, the growth ticks its flows skipped — and the allocator's
// per-flush fingerprint stream (simnet.FlushObserver), by length and
// fold. These cannot be noisy, so they are pinned here, at seed 1 of the
// three esgperf sim workloads, beside the digests bench/sim.go records:
// an allocator change that silently skips or adds a pass fails go test
// ./..., not just a benchmark digest. A change meant to alter the
// simulated behaviour re-records them in the same diff; a change that
// only moves work (fewer core events) must leave the flush stream as it
// is.

// watched is what watchRun saw of one run.
type watched struct {
	flushes              []flushRec
	skipped, wakes, ties uint64 // simnet.Net.GrowthStats, summed over the run's nets
}

// watchRun records the flush stream and the growth counters of every
// network built until the returned stop is called.
func watchRun() (stop func() watched) {
	var w watched
	var rigs []*rig
	rigBuilt = func(g *rig) { rigs = append(rigs, g) }
	stopFlushes := captureFlushes()
	return func() watched {
		rigBuilt = nil
		w.flushes = stopFlushes()
		for _, g := range rigs {
			s, k, t := g.Net.GrowthStats()
			w.skipped += s
			w.wakes += k
			w.ties += t
		}
		return w
	}
}

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
	stop := watchRun()
	r, err := RunTable1(c)
	w := stop()
	if err != nil {
		t.Fatal(err)
	}
	const wantCore, wantData = 1454155, 422448
	if fs := r.Flight.Stats(); fs.CoreWritten != wantCore || fs.DataWritten != wantData {
		t.Fatalf("sim-table1 seed 1: %d core events, %d data records; recorded %d, %d",
			fs.CoreWritten, fs.DataWritten, wantCore, wantData)
	}
	checkFlushes(t, "sim-table1", w.flushes, 422092, "8e056b521a131aa9")
	checkGrowth(t, "sim-table1", w, 272)
}

// TestWorkCountsFigure8 runs sim-figure8's op (Figure 8's default
// configuration for two simulated hours).
func TestWorkCountsFigure8(t *testing.T) {
	defer onOneP(t)()
	c := DefaultFigure8Config()
	c.Duration = 2 * time.Hour
	stop := watchRun()
	r, err := RunFigure8(c)
	w := stop()
	if err != nil {
		t.Fatal(err)
	}
	const wantCore, wantData = 701789, 155410
	if fs := r.Flight.Stats(); fs.CoreWritten != wantCore || fs.DataWritten != wantData {
		t.Fatalf("sim-figure8 seed 1: %d core events, %d data records; recorded %d, %d",
			fs.CoreWritten, fs.DataWritten, wantCore, wantData)
	}
	checkFlushes(t, "sim-figure8", w.flushes, 155494, "3c6405ef4a797032")
	checkGrowth(t, "sim-figure8", w, 1006146)
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
// files). Its drivers are event-paced, so the counts hold on any P. The
// flush fingerprints do not yet: on more than one P two runs of this
// seed part in the rate and byte bits (ROADMAP item 1), so the stream's
// fold is checked at one P, as esgperf runs it, and its length on any.
func TestWorkCountsScale1k(t *testing.T) {
	stop := watchRun()
	r, err := RunScale(3, []int{1024}, 4)
	w := stop()
	if err != nil {
		t.Fatal(err)
	}
	const wantPasses, wantFlows = 50523, 386427
	if r.AllocPasses[0] != wantPasses || r.AllocFlows[0] != wantFlows {
		t.Fatalf("sim-scale1k seed 1: %d allocation passes over %d flows; recorded %d, %d",
			r.AllocPasses[0], r.AllocFlows[0], wantPasses, wantFlows)
	}
	checkGrowth(t, "sim-scale1k", w, 2048)
	const wantFlushes, wantFold = 19794, "ed94eb6aad643bad"
	if runtime.GOMAXPROCS(0) > 1 || raceEnabled {
		if len(w.flushes) != wantFlushes {
			t.Fatalf("sim-scale1k seed 1: %d flushes; recorded %d", len(w.flushes), wantFlushes)
		}
		return
	}
	checkFlushes(t, "sim-scale1k", w.flushes, wantFlushes, wantFold)
}

// checkFlushes compares a run's flush stream with its recorded length
// and fold: the first 8 bytes, in hex, of SHA-256 over one 24-byte
// little-endian (now, sig, nflows) record per flush. Two runs that agree
// here saw bitwise-equal flow state at every allocation boundary.
func checkFlushes(t *testing.T, op string, recs []flushRec, wantN int, wantFold string) {
	t.Helper()
	h := sha256.New()
	var b [24]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.now))
		binary.LittleEndian.PutUint64(b[8:], r.sig)
		binary.LittleEndian.PutUint64(b[16:], uint64(r.nflows))
		h.Write(b[:])
	}
	if fold := hex.EncodeToString(h.Sum(nil)[:8]); len(recs) != wantN || fold != wantFold {
		t.Fatalf("%s seed 1: %d flushes, stream fold %s; recorded %d, %s",
			op, len(recs), fold, wantN, wantFold)
	}
}

// checkGrowth pins the growth ticks the run's sleeping flows skipped,
// and requires that no reader met a skipped tick at its own instant in
// an order the per-tick schedule leaves open: one such tie would mean
// the run is no longer provably the per-tick run.
func checkGrowth(t *testing.T, op string, w watched, wantSkipped uint64) {
	t.Helper()
	if w.skipped != wantSkipped || w.ties != 0 {
		t.Fatalf("%s seed 1: %d growth ticks skipped (%d wakes), %d same-instant ties; recorded %d skipped, 0 ties",
			op, w.skipped, w.wakes, w.ties, wantSkipped)
	}
}
