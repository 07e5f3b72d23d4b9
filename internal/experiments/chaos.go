package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"esgrid/internal/chaos"
	"esgrid/internal/flight"
	"esgrid/internal/gridftp"
	"esgrid/internal/rm"
	"esgrid/internal/simnet"
)

// ChaosConfig parameterizes S13: a multi-file replication on the
// Figure 8 topology (plus a tape-backed second replica site) run under
// an escalating randomized fault sweep, with every run audited by the
// chaos.Invariants checker.
type ChaosConfig struct {
	Seed     int64
	Files    int
	FileMB   int64
	NICBps   float64
	DiskBps  float64
	RTT      time.Duration
	LossRate float64
	// Levels is the fault sweep: one run per entry, injecting that many
	// randomized faults.
	Levels []int
	// MaxOutage caps a single fault's duration; it must stay well under
	// the retry budget (MaxAttempts × RetryBackoff) or completion is not
	// recoverable.
	MaxOutage    time.Duration
	RetryBackoff time.Duration
	MaxAttempts  int
	// WallProfile turns on the sampled wall-time core profiler for this
	// run (host-machine measurements: useful interactively via esgprof,
	// never part of the deterministic record stream).
	WallProfile bool
}

// DefaultChaosConfig keeps runs small enough for the test suite while
// still letting several faults land mid-transfer.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:         11,
		Files:        4,
		FileMB:       16,
		NICBps:       100e6,
		DiskBps:      82e6,
		RTT:          24 * time.Millisecond,
		LossRate:     3e-4,
		Levels:       []int{0, 2, 4, 8},
		MaxOutage:    4 * time.Second,
		RetryBackoff: time.Second,
		MaxAttempts:  30,
	}
}

// ChaosRun is one schedule execution: the raw material for both the
// sweep table and the invariant audit.
type ChaosRun struct {
	Elapsed     time.Duration
	Activations int
	Attempts    int // total transfer attempts across files
	Files       []chaos.FileResult
	Report      chaos.Report
	JSONL       string
	// Flight is the run's always-on flight recorder: the retained core
	// event window plus connection/allocator records, ready to dump when
	// an invariant audit fails or to walk a retry's provenance chain.
	Flight *flight.Recorder
	// Vitals is the core profiler's end-of-run snapshot (event core,
	// ring occupancy, CSR-cache hit rate).
	Vitals flight.Vitals
	// WallText is the rendered wall-attribution table when
	// Config.WallProfile was set (empty otherwise).
	WallText string
}

// GoodputBps is useful payload delivered per wall second.
func (r ChaosRun) GoodputBps(totalBytes int64) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(totalBytes) * 8 / r.Elapsed.Seconds()
}

// ChaosLevel is one row of the fault sweep.
type ChaosLevel struct {
	Faults      int
	Activations int
	Elapsed     time.Duration
	GoodputBps  float64
	Overhead    time.Duration // wall time beyond the fault-free baseline
	Refetch     int64         // re-requested bytes beyond file sizes
	Attempts    int
}

// ChaosResult is the full S13 sweep.
type ChaosResult struct {
	Config     ChaosConfig
	TotalBytes int64
	Levels     []ChaosLevel
}

// Rows renders the fault-sweep table.
func (r ChaosResult) Rows() []Row {
	rows := []Row{
		{"Replication payload", fmt.Sprintf("%d files × %d MB", r.Config.Files, r.Config.FileMB)},
		{"Invariants", "completion + hash equality + bounded re-fetch: all levels pass"},
	}
	for _, lv := range r.Levels {
		rows = append(rows, Row{
			Label: fmt.Sprintf("%2d fault(s) (%d activations)", lv.Faults, lv.Activations),
			Value: fmt.Sprintf("%-8s goodput %-12s overhead %-8s refetch %6.2f MB  attempts %d",
				durSeconds(lv.Elapsed), mbps(lv.GoodputBps),
				durSeconds(lv.Overhead), float64(lv.Refetch)/(1<<20), lv.Attempts),
		})
	}
	return rows
}

// chaosContent generates the deterministic file body for file idx: real
// bytes, so destination hashes can be checked against the source.
func chaosContent(idx int, size int64) []byte {
	buf := make([]byte, size)
	x := uint32(2463534242) + uint32(idx)*97
	for i := range buf {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		buf[i] = byte(x)
	}
	return buf
}

func hashHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// RunChaosSchedule executes one replication run under the given fault
// schedule and audits it. The topology extends Figure 8's
// dallas/isp/anl path into a replication mesh: ncar (disk replica) and
// lbnl (tape-backed replica behind an HRM) both reach the anl
// destination through the isp node, and the RM falls over between them
// as faults land.
func RunChaosSchedule(cfg ChaosConfig, sched chaos.Schedule) (ChaosRun, error) {
	if cfg.Files <= 0 || cfg.FileMB <= 0 {
		return ChaosRun{}, fmt.Errorf("experiments: bad chaos config %+v", cfg)
	}
	t, err := newTriangle(cfg.Seed, simnet.LinkConfig{CapacityBps: cfg.NICBps, Delay: cfg.RTT / 4, LossRate: cfg.LossRate / 2},
		cfg.DiskBps, cfg.Files, cfg.FileMB, "chaos", "ncar", "lbnl")
	if err == nil {
		err = t.injector.Validate(sched)
	}
	if err != nil {
		return ChaosRun{}, err
	}
	if cfg.WallProfile {
		t.Clock.EnableWallProfile()
	}

	run := ChaosRun{Flight: t.rec}
	var statuses []rm.FileStatus
	err = t.Run(func() {
		if !t.start(gridftp.Config{}) {
			return
		}
		req, t0 := t.submit("chaos", sched, cfg.MaxAttempts, cfg.RetryBackoff)
		if req == nil {
			return
		}
		_ = req.Wait() // failures surface in the statuses the audit checks
		run.Elapsed = t.Clock.Now().Sub(t0)
		statuses = req.Status()
		// Let connection teardown drain before the run ends: the last
		// control conn's server side retires a FIN-drain after Wait
		// returns, and without this the conn.retired event would race
		// with Run's return instead of landing in the stream
		// deterministically.
		t.Clock.Sleep(2 * time.Second)
	})
	// End-of-run profiler snapshot. Run has returned, which orders every
	// managed goroutine's last step before these reads of the Sim, the
	// Net and the recorder's rings.
	run.Vitals = flight.Vitals{Core: t.Clock.CoreStats(), Rec: t.rec.Stats()}
	run.Vitals.CSRHits, run.Vitals.CSRLookups = t.Net.CSRStats()
	if cfg.WallProfile {
		run.WallText = flight.WallReport(t.Clock)
	}
	if err != nil {
		return run, err
	}

	run.Activations = t.injector.Activations()
	for _, st := range statuses {
		run.Attempts += st.Attempts
		fr := chaos.FileResult{
			Name: st.Name, Size: st.Size, RequestedBytes: st.RequestedBytes,
			Attempts: st.Attempts, Done: st.State == rm.StateDone, Err: st.Error,
		}
		if body, ok := t.src.Get(st.Name); ok {
			fr.WantHash = hashHex(body)
		}
		if body, ok := t.dest.Get(st.Name); ok {
			fr.GotHash = hashHex(body)
		}
		run.Files = append(run.Files, fr)
	}
	inv := chaos.Invariants{
		// A single activation can kill at most the one in-flight transfer
		// (MaxConcurrent=1), forcing at worst a whole-file re-request.
		MaxRefetchBytesPerFault: t.size,
		RetryBackoff:            cfg.RetryBackoff,
		Slack:                   time.Millisecond,
	}
	run.Report = inv.Check(run.Files, t.log.Events(), t.tracer.Snapshot(), run.Activations)
	run.JSONL = t.log.JSONL()
	return run, nil
}

// chaosHorizon estimates the clean-run wall time, so randomized fault
// start times land while transfers are still in flight.
func chaosHorizon(cfg ChaosConfig) time.Duration {
	perFile := time.Duration(float64(cfg.FileMB<<20)*8/cfg.DiskBps*float64(time.Second)) + 2*time.Second
	return time.Duration(cfg.Files) * perFile
}

// ChaosScheduleFor draws the randomized schedule for one sweep level.
// Equal (config, level) pairs always yield the same schedule, which is
// what lets a failed soak run be replayed from its printed seed.
func ChaosScheduleFor(cfg ChaosConfig, seed int64, faults int) chaos.Schedule {
	return chaos.RandomSchedule(seed, chaos.RandomConfig{
		Horizon:   chaosHorizon(cfg),
		Faults:    faults,
		Links:     []string{"ncar-isp", "lbnl-isp", "isp-anl"},
		Hosts:     []string{"ncar", "lbnl"},
		Stagers:   []string{"lbnl"},
		DNS:       true,
		MaxOutage: cfg.MaxOutage,
	})
}

// RunChaos executes the S13 fault sweep: one audited replication run
// per level, escalating the injected fault count.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	if len(cfg.Levels) == 0 {
		cfg.Levels = []int{0, 2, 4, 8}
	}
	res := ChaosResult{Config: cfg, TotalBytes: int64(cfg.Files) * (cfg.FileMB << 20)}
	var baseline time.Duration
	for li, faults := range cfg.Levels {
		sched := ChaosScheduleFor(cfg, cfg.Seed*1000+int64(li), faults)
		run, err := RunChaosSchedule(cfg, sched)
		if err != nil {
			return res, fmt.Errorf("level %d (%d faults): %w", li, faults, err)
		}
		if err := run.Report.Err(); err != nil {
			return res, fmt.Errorf("level %d (%d faults): %w", li, faults, err)
		}
		if li == 0 {
			baseline = run.Elapsed
		}
		res.Levels = append(res.Levels, ChaosLevel{
			Faults:      faults,
			Activations: run.Activations,
			Elapsed:     run.Elapsed,
			GoodputBps:  run.GoodputBps(res.TotalBytes),
			Overhead:    run.Elapsed - baseline,
			Refetch:     run.Report.RefetchBytes,
			Attempts:    run.Attempts,
		})
	}
	return res, nil
}
