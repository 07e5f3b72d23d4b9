package experiments

import (
	"fmt"
	"time"

	"esgrid/internal/grid"
	"esgrid/internal/gridftp"
	"esgrid/internal/gsi"
	"esgrid/internal/ldapd"
	"esgrid/internal/netlogger"
	"esgrid/internal/replica"
	"esgrid/internal/rm"
	"esgrid/internal/simnet"
	"esgrid/internal/vtime"
)

// PaperTeardownGap is the inter-file pause the paper's NetLogger
// life-lines exposed in the Figure 8 run: ~0.8 s of TCP teardown and
// session re-setup between consecutive file transfers.
const PaperTeardownGap = 800 * time.Millisecond

// LifelineConfig parameterizes the S12 life-line experiment: a multi-file
// RM request over a Figure 8-style path, fully traced, with channel
// caching off so each file pays the teardown + setup pause between data
// phases — the signature the stage-attribution analyzer must expose.
type LifelineConfig struct {
	Seed          int64
	Files         int
	FileMB        int64
	NICBps        float64
	DiskBps       float64
	RTT           time.Duration
	LossRate      float64
	BufferBytes   int
	Parallelism   int
	HandshakeCost time.Duration // per GSI side, as in Figure 8
}

// DefaultLifelineConfig mirrors the Figure 8 testbed: a 100 Mb/s NIC,
// commodity RTT, disk-limited sink, authenticated sessions.
func DefaultLifelineConfig() LifelineConfig {
	return LifelineConfig{
		Seed:        7,
		Files:       4,
		FileMB:      96,
		NICBps:      100e6,
		DiskBps:     82e6,
		RTT:         24 * time.Millisecond,
		LossRate:    3e-4,
		BufferBytes: 1 << 20,
		// A single stream by default. More streams trace just as
		// reproducibly: which data conn carries which block follows the
		// simulated schedule, the same at every GOMAXPROCS
		// (TestEqualSeed's lifeline-p4 row).
		Parallelism:   1,
		HandshakeCost: 150 * time.Millisecond,
	}
}

// LifelineResult carries the trace, its stage attribution, and the
// rendered artifacts.
type LifelineResult struct {
	Config   LifelineConfig
	Elapsed  time.Duration
	Analysis netlogger.TraceAnalysis
	Gantt    string
	Stages   string // per-stage breakdown table
	Metrics  string // metrics registry snapshot
	ULM      string // NetLogger ULM event stream
	JSONL    string // JSONL event stream
	MeanGap  time.Duration
	Coverage float64
	Events   int
	Spans    int
}

// Rows summarizes the run next to the paper's observation.
func (r LifelineResult) Rows() []Row {
	rows := []Row{
		{"Files transferred", fmt.Sprint(r.Config.Files)},
		{"Request wall time", durSeconds(r.Elapsed)},
		{"Spans / events recorded", fmt.Sprintf("%d / %d", r.Spans, r.Events)},
		{"Stage attribution coverage", fmt.Sprintf("%.2f%% of wall time", 100*r.Coverage)},
	}
	for _, st := range r.Analysis.Stages {
		rows = append(rows, Row{
			Label: "  stage " + st.Stage,
			Value: fmt.Sprintf("%-9s (%4.1f%%)", durSeconds(st.Dur), 100*float64(st.Dur)/float64(r.Analysis.Wall)),
		})
	}
	rows = append(rows, Row{
		"Mean inter-file gap (teardown+setup)",
		fmt.Sprintf("%.2f s  (paper: ~%.1f s per file)", r.MeanGap.Seconds(), PaperTeardownGap.Seconds()),
	})
	return rows
}

// RunLifeline executes the traced multi-file request and analyzes its
// life-line.
func RunLifeline(cfg LifelineConfig) (LifelineResult, error) {
	if cfg.Files <= 0 || cfg.FileMB <= 0 {
		return LifelineResult{}, fmt.Errorf("experiments: bad lifeline config %+v", cfg)
	}
	if cfg.Parallelism < 1 {
		cfg.Parallelism = 1
	}
	g := newRig(cfg.Seed, withLog)
	clk, n := g.Clock, g.Net
	n.AddHost("dallas", simnet.HostConfig{DefaultBufferBytes: 64 << 10})
	n.AddHost("anl", simnet.HostConfig{DefaultBufferBytes: 64 << 10, DiskBps: cfg.DiskBps})
	n.AddNode("isp")
	n.AddLink("dallas", "isp", simnet.LinkConfig{CapacityBps: cfg.NICBps, Delay: cfg.RTT / 4, LossRate: cfg.LossRate / 2})
	n.AddLink("isp", "anl", simnet.LinkConfig{CapacityBps: 155e6, Delay: cfg.RTT / 4, LossRate: cfg.LossRate / 2})

	// GSI identities so sessions pay the authenticated setup the paper's
	// deployment paid.
	ca, err := gsi.NewCA("ESG-CA")
	if err != nil {
		return LifelineResult{}, err
	}
	trust := gsi.NewTrustStore(ca)
	srvID, err := ca.Issue("/CN=dallas", vtime.Epoch, 240*time.Hour)
	if err != nil {
		return LifelineResult{}, err
	}
	usrID, err := ca.Issue("/CN=esg-user", vtime.Epoch, 240*time.Hour)
	if err != nil {
		return LifelineResult{}, err
	}

	names := fileNames("pcm-%02d.nc", cfg.Files)
	store := grid.VirtualStore(cfg.FileMB<<20, names...)
	dir := ldapd.NewDir()
	cat, err := replica.New(dir)
	if err != nil {
		return LifelineResult{}, err
	}
	if err := cat.CreateCollection("lifeline", names); err != nil {
		return LifelineResult{}, err
	}
	if err := cat.AddLocation("lifeline", replica.Location{
		Host: "dallas", Protocol: "gsiftp", Port: 2811, Path: "/d", Files: names,
	}); err != nil {
		return LifelineResult{}, err
	}

	res := LifelineResult{Config: cfg}
	err = g.Run(func() {
		if !g.Serve("dallas", gridftp.Config{
			Store: store, DiskBound: true, Log: g.log,
			Auth: &gsi.Config{Identity: srvID, Trust: trust, Clock: clk, HandshakeCost: cfg.HandshakeCost},
		}) {
			return
		}
		mgr, err := rm.New(rm.Config{
			Clock: clk, Net: n.Host("anl"), LocalHost: "anl", Replica: cat,
			DestStore: gridftp.NewVirtualStore(), Policy: rm.PolicyFirst,
			Auth:        &gsi.Config{Identity: usrID, Trust: trust, Clock: clk, HandshakeCost: cfg.HandshakeCost},
			Parallelism: cfg.Parallelism, BufferBytes: cfg.BufferBytes,
			// Channel caching off and one transfer at a time: each file
			// pays the full teardown + setup pause, the Figure 8 gap.
			CacheDataChannels: false,
			MaxConcurrent:     1,
			MonitorInterval:   250 * time.Millisecond,
			Log:               g.log,
			Tracer:            g.tracer,
			Metrics:           g.metrics,
		})
		if g.Fail(err) {
			return
		}
		t0 := clk.Now()
		if g.submitAll(mgr, "esg-user", "lifeline", names, cfg.FileMB<<20) != nil {
			res.Elapsed = clk.Now().Sub(t0)
		}
	})
	if err != nil {
		return res, err
	}

	spans := g.tracer.Snapshot()
	res.Spans = len(spans)
	res.Events = len(g.log.Events())
	res.Analysis = netlogger.AnalyzeTrace(spans, 1)
	res.Coverage = res.Analysis.Coverage
	res.MeanGap = res.Analysis.MeanGap()
	res.Gantt = res.Analysis.RenderGantt(96)
	res.Stages = res.Analysis.RenderStageTable()
	res.Metrics = g.metrics.Render()
	res.ULM = g.log.ULM()
	res.JSONL = g.log.JSONL()
	return res, nil
}
