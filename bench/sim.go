package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"esgrid/internal/experiments"
	"esgrid/internal/flight"
)

// recordedDigests are the digests of the simulated statistics at the
// default seed (1) and full size. A change meant only to make the
// simulator faster must leave them identical; a change to the simulated
// behaviour re-records them, and says so.
var recordedDigests = map[string]string{
	"sim-table1":  "fbaf7d537f2870810fb3d78c4851cd517d362d4ebc2cf812ba8bcfa3d0a7827a",
	"sim-figure8": "d20c084f127cab4d4bf477e7b581b68bb2aea1eb93e54843dbabebf53045f233",
	"sim-scale1k": "7a3fd98087defe191eb624c7e11790af4ae8d0ac91f7d76734334f7000e6b2de",
}

// simRun is one op of a sim workload: it runs the experiment, checks
// the invariants every sample path of it must keep, and returns the
// text its digest is taken over and the op's exact layer counts.
type simRun func(cfg runConfig) (stats string, counts map[string]float64, err error)

// simFixture has no state to build: a sim op constructs its own grid.
// It remembers the first digest so every later op of the process, in
// any set-up, is compared with it.
//
// An op that ran with GOMAXPROCS=1 and whose digest differs from the
// first op's, or at seed 1 from the recorded one, has failed. With
// more than one P busy the scheduler wakes a cohort of goroutines in an
// order that is not a function of the seed (ROADMAP item 1): Table 1
// then takes one of a few sample paths. Ops the traced pass runs that
// way are held to the invariants only and their divergence is counted,
// as are the smoke test's ops: under the race detector the scheduler
// shuffles its run queues on purpose.
type simFixture struct {
	name string
	cfg  runConfig
	run  simRun

	first, last string
	stats       string // the text last is the digest of
	ops         int
	divergent   int // ops whose digest differed
	counts      map[string]float64
}

func (f *simFixture) op(int) error {
	stats, counts, err := f.run(f.cfg)
	if err != nil {
		return err
	}
	f.last = fmt.Sprintf("%x", sha256.Sum256([]byte(stats)))
	f.stats = stats
	f.counts = counts
	return nil
}

func (f *simFixture) check(int) error {
	f.ops++
	want, from := f.first, "the run's first op"
	if f.first == "" {
		f.first = f.last
		want = f.last
		if f.cfg.seed == 1 && !f.cfg.smoke {
			want, from = recordedDigests[f.name], "the recorded digest"
		}
	}
	if f.last == want {
		return nil
	}
	f.divergent++
	if runtime.GOMAXPROCS(0) == 1 && !f.cfg.smoke {
		return fmt.Errorf("digest %s differs from %s %s:\n%s", f.last, from, want, f.stats)
	}
	return nil
}

func (f *simFixture) layers() map[string]float64 { return f.counts }
func (f *simFixture) divergentOps() int          { return f.divergent }

// notes are the fixture's lines of the report.
func (f *simFixture) notes() []string {
	note := fmt.Sprintf("digest      %.12s on %d of %d ops", f.first, f.ops-f.divergent, f.ops)
	if f.cfg.seed == 1 && !f.cfg.smoke {
		note += "; recorded " + fmt.Sprintf("%.12s", recordedDigests[f.name])
	}
	if f.divergent > 0 {
		note += "  NOT REPEATABLE"
	}
	return []string{note}
}

func (f *simFixture) close() {}

// simWorkload completes a sim workload. Its gated pass runs on one P:
// on this 2-vCPU guest the same op at GOMAXPROCS=2 hands off between
// threads all the time, takes 1.3 to 1.5 times as long and varies four
// times as much from minute to minute with the neighbours' load. The
// traced pass measures that multi-core cost beside the single-P one.
func simWorkload(w workload, run simRun) workload {
	fx := &simFixture{name: w.name, run: run}
	w.procs = 1
	w.checkEvery = 1
	w.open = func(cfg runConfig) (fixture, error) {
		fx.cfg = cfg
		return fx, nil
	}
	return w
}

func rowsText(rows []experiments.Row) string { return experiments.Table("", rows) }

// flightCounts are the exact counts a run's flight recorder keeps.
func flightCounts(rec *flight.Recorder) map[string]float64 {
	fs := rec.Stats()
	return map[string]float64{
		"vtime.core_events":   float64(fs.CoreWritten),
		"simnet.data_records": float64(fs.DataWritten),
	}
}

func runTable1(cfg runConfig) (string, map[string]float64, error) {
	// Table 1's topology and 32-stream load, with the WAN's loss held at
	// its clean-spell rate and no show-floor faults: the default's random
	// congestion episodes make an op's cost swing by a fifth with the
	// seed, which no bound on op_allocs or op_wall_ms could tell from a
	// regression. Held steady, ten seeds agree within 2 %.
	c := experiments.DefaultTable1Config()
	c.Seed = 2000 + cfg.seed - 1
	c.Duration = 3 * time.Minute
	c.ShowFloorFaults = false
	c.CongestedLossRate = c.WANLossRate
	if cfg.smoke {
		c.Duration = 5 * time.Second
	}
	r, err := experiments.RunTable1(c)
	if err != nil {
		return "", nil, err
	}
	switch {
	case r.TransfersDone <= 0 || r.TransfersDone > r.TransfersStarted:
		err = fmt.Errorf("%d of %d transfers done", r.TransfersDone, r.TransfersStarted)
	case !(0 < r.SustainedBps && r.SustainedBps <= r.PeakBps5s && r.PeakBps5s <= r.PeakBps100ms && r.PeakBps100ms <= c.WANCapBps*1.001):
		err = fmt.Errorf("rates out of order: sustained %.4g, 5 s peak %.4g, 0.1 s peak %.4g, WAN %.4g b/s",
			r.SustainedBps, r.PeakBps5s, r.PeakBps100ms, c.WANCapBps)
	case math.Abs(r.TotalBytes*8/c.Duration.Seconds()-r.SustainedBps) > 0.01*r.SustainedBps:
		err = fmt.Errorf("%.4g bytes in %v is not the sustained rate %.4g b/s", r.TotalBytes, c.Duration, r.SustainedBps)
	}
	if err != nil {
		return "", nil, err
	}
	return rowsText(r.Rows()), flightCounts(r.Flight), nil
}

func runFigure8(cfg runConfig) (string, map[string]float64, error) {
	c := experiments.DefaultFigure8Config()
	c.Seed += cfg.seed - 1
	c.Duration = 2 * time.Hour
	if cfg.smoke {
		c.Duration = 5 * time.Minute
	}
	r, err := experiments.RunFigure8(c)
	if err != nil {
		return "", nil, err
	}
	if r.Transfers <= 0 || !(0 < r.MeanBps && r.MeanBps <= c.NICBps) {
		return "", nil, fmt.Errorf("%d transfers at a mean of %.4g b/s over a %.4g b/s NIC", r.Transfers, r.MeanBps, c.NICBps)
	}
	return rowsText(r.Rows()), flightCounts(r.Flight), nil
}

func runScale1k(cfg runConfig) (string, map[string]float64, error) {
	clients, fileMB := 1024, int64(4)
	if cfg.smoke {
		clients, fileMB = 64, 1
	}
	r, err := experiments.RunScale(cfg.seed+2, []int{clients}, fileMB)
	if err != nil {
		return "", nil, err
	}
	if want := int64(clients) * fileMB << 20; r.Bytes[0] != want {
		return "", nil, fmt.Errorf("%d clients received %d bytes, want %d", clients, r.Bytes[0], want)
	}
	// ScaleResult.Rows() embeds wall time, so the digest is taken over
	// the simulated fields only.
	stats := fmt.Sprintf("%v %v %v %v %+v", r.SimElapsed, r.Bytes, r.AllocPasses, r.AllocFlows, r.Lat)
	passes, flows := float64(r.AllocPasses[0]), float64(r.AllocFlows[0])
	counts := map[string]float64{
		"simnet.alloc_passes":  passes,
		"simnet.flows_visited": flows,
	}
	if passes > 0 {
		counts["simnet.flows_per_pass"] = flows / passes
	}
	return stats, counts, nil
}
