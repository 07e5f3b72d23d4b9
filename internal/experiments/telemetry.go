package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"esgrid/internal/netlogger"
	"esgrid/internal/simnet"
	"esgrid/internal/telemetry"
)

// --- S16: hierarchical telemetry — observer cost and sketch fidelity ---
//
// The paper's operators watched the SC'00 hour through NetLogger
// streams shipped host-by-host to one display (§3.4) — a flat observer
// path that scales with hosts. S16 measures the alternative this repo
// builds: hosts fold mergeable sketches locally, sites fold hosts, and
// a fanout-bounded tree folds sites to one grid root, so the traffic
// that crosses the wide area scales with sites while the root still
// answers grid-wide quantile queries. The sweep varies hosts at fixed
// sites (WAN bytes must stay near-flat) and sites at fixed hosts per
// site (WAN bytes must grow), checks the root's folded histogram is
// bit-identical to a flat fold of every host registry, checks grid
// quantiles land within one log-bucket of the exact sorted-sample
// ground truth, and replays one degraded run to show the SLO burn-rate
// alerts firing off the folded stream.

// TelemetryConfig parameterises the S16 sweep.
type TelemetryConfig struct {
	Seed  int64
	Ticks int
	// Cells lists (sites, hostsPerSite) sweep points; defaults cover
	// host-scaling at fixed sites and site-scaling at fixed hosts.
	Cells [][2]int
}

// TelemetryCell is one sweep point's measured outcome.
type TelemetryCell struct {
	Sites, HostsPer, Hosts int
	// WANBytes/WANFrames: traffic above the leaf tier — what actually
	// crosses the wide area to reach the observer.
	WANBytes, WANFrames int64
	// LeafBytes: the per-host reports that stay inside each site; a
	// flat NetLogger-style stream would ship these to the observer.
	LeafBytes   int64
	SketchExact bool // root fold == flat fold of all host registries
	// MaxQErrBuckets is the worst log-bucket distance between the grid
	// p50/p99/p999 and the exact sorted-sample quantiles.
	MaxQErrBuckets int
	GoodputBps     float64
}

// TelemetryResult is the full S16 run.
type TelemetryResult struct {
	Config TelemetryConfig
	Cells  []TelemetryCell
	// FanoutIdentical: the reference cell's grid snapshots and alert
	// stream are byte-identical at fanout 2, 4 and 8.
	FanoutIdentical bool
	// SLOAlerts counts burn-rate alerts from the degraded scenario;
	// ReplayJSONL is that scenario's full telemetry stream (grid
	// snapshots interleaved with alerts) for esgmon -grid -jsonl.
	SLOAlerts   int
	ReplayJSONL string
}

// telemetryRun is one plane execution plus its ground truth.
type telemetryRun struct {
	jsonl    string
	alerts   string
	lastSum  telemetry.Summary
	lastJSON string
	traffic  []telemetry.TierTraffic
	grids    []telemetry.GridSnapshot
	nAlerts  int
	samples  []float64 // every stage.retr observation, all hosts
	flatJSON string    // flat fold of all host registries
}

// runTelemetryPlane builds sites×hostsPer leaves behind site routers, a
// core, and an observer host; runs the plane for ticks; and returns the
// published streams plus the flat-fold ground truth.
func runTelemetryPlane(seed int64, sites, hostsPer, fanout, ticks int, slo telemetry.SLO, degrade bool) (telemetryRun, error) {
	g := newRig(seed)
	clk, n := g.Clock, g.Net
	p, err := telemetry.New(telemetry.Config{
		Clock: clk, Ticks: ticks, Fanout: fanout, SLO: slo,
	})
	if err != nil {
		return telemetryRun{}, err
	}

	root := n.AddHost("obs", simnet.HostConfig{})
	n.AddLink("obs", "core", simnet.LinkConfig{CapacityBps: 622e6, Delay: 5 * time.Millisecond})
	p.SetRoot(root)

	var regs []*netlogger.Registry
	for s := 0; s < sites; s++ {
		site := fmt.Sprintf("s%02d", s)
		router := "r" + site
		n.AddLink(router, "core", simnet.LinkConfig{CapacityBps: 622e6, Delay: 10 * time.Millisecond})
		agg := n.AddHost("ag"+site, simnet.HostConfig{})
		n.AddLink("ag"+site, router, simnet.LinkConfig{CapacityBps: 100e6, Delay: 2 * time.Millisecond})
		if err := p.AddSite(site, agg); err != nil {
			return telemetryRun{}, err
		}
		for h := 0; h < hostsPer; h++ {
			name := fmt.Sprintf("h%sx%03d", site, h)
			leaf := n.AddHost(name, simnet.HostConfig{})
			n.AddLink(name, router, simnet.LinkConfig{CapacityBps: 100e6, Delay: 2 * time.Millisecond})
			reg, err := p.AddLeaf(site, leaf, nil)
			if err != nil {
				return telemetryRun{}, err
			}
			regs = append(regs, reg)
		}
	}

	// Per-host workload: stage latencies and byte deliveries observed
	// mid-tick from per-host seeded streams. When degrading, site s00's
	// hosts turn slow and quiet after tick 1 so the grid SLO burns
	// through. perHost collects every stage.retr sample for the exact
	// ground truth; slot i is only written by leaf i's goroutine.
	perHost := make([][]float64, len(regs))
	workload := func(idx int, reg *netlogger.Registry) {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)))
		off := time.Duration(150+idx%700) * time.Millisecond
		slowSite := degrade && idx < hostsPer // site s00 hosts come first
		for i := 0; i < ticks; i++ {
			clk.Sleep(off)
			lat := 0.05 + rng.Float64()*1.1
			bytes := float64(2_000_000 + rng.Intn(1_000_000))
			if slowSite && i >= 1 {
				lat = 6 + rng.Float64()*4
				bytes = 1000
			}
			reg.LogHist("stage.retr").Observe(lat)
			perHost[idx] = append(perHost[idx], lat)
			reg.LogHist("stage.stor").Observe(0.02 + rng.ExpFloat64()*0.3)
			reg.Counter("bytes.total").Add(bytes)
			reg.Gauge("queue.depth").Set(float64(rng.Intn(12)))
			clk.Sleep(time.Second - off)
		}
	}

	if err := g.Run(func() {
		if g.Fail(p.Start()) {
			return
		}
		for i, reg := range regs {
			i, reg := i, reg
			clk.Go(func() { workload(i, reg) })
		}
		g.Fail(p.Wait())
	}); err != nil {
		return telemetryRun{}, err
	}

	flat := telemetry.Summary{}
	for _, reg := range regs {
		flat = telemetry.Merge(flat, telemetry.Summary{Hosts: 1, RegistrySnapshot: reg.Mergeable()})
	}
	last := p.LastSummary()
	flat.Tick = last.Tick
	flatJSON, err := json.Marshal(flat)
	if err != nil {
		return telemetryRun{}, err
	}
	lastJSON, err := json.Marshal(last)
	if err != nil {
		return telemetryRun{}, err
	}

	var samples []float64
	for _, hs := range perHost {
		samples = append(samples, hs...)
	}
	return telemetryRun{
		jsonl: p.TelemetryJSONL(), alerts: p.AlertJSONL(),
		lastSum: last, lastJSON: string(lastJSON), flatJSON: string(flatJSON),
		traffic: p.Traffic(), grids: p.Grids(),
		nAlerts: len(p.Alerts()), samples: samples,
	}, nil
}

func (r telemetryRun) cell(sites, hostsPer int) TelemetryCell {
	c := TelemetryCell{Sites: sites, HostsPer: hostsPer, Hosts: sites * hostsPer}
	for _, t := range r.traffic {
		if t.Tier == "t0:leaf" {
			c.LeafBytes += t.Bytes
		} else {
			c.WANBytes += t.Bytes
			c.WANFrames += t.Frames
		}
	}
	c.SketchExact = r.lastJSON == r.flatJSON

	sorted := append([]float64(nil), r.samples...)
	sort.Float64s(sorted)
	if h, ok := r.lastSum.Hist("stage.retr"); ok {
		for _, q := range []float64{0.5, 0.99, 0.999} {
			d := netlogger.LogBucketDistance(h.Quantile(q), netlogger.Quantile(sorted, q))
			if d > c.MaxQErrBuckets {
				c.MaxQErrBuckets = d
			}
		}
	} else {
		c.MaxQErrBuckets = -1
	}
	if len(r.grids) > 0 {
		c.GoodputBps = r.grids[len(r.grids)-1].GoodputBps
	}
	return c
}

// RunTelemetry executes the S16 sweep.
func RunTelemetry(cfg TelemetryConfig) (TelemetryResult, error) {
	if cfg.Ticks <= 0 {
		cfg.Ticks = 6
	}
	if len(cfg.Cells) == 0 {
		cfg.Cells = [][2]int{{4, 8}, {8, 8}, {16, 8}, {8, 16}, {8, 32}}
	}
	res := TelemetryResult{Config: cfg}

	for _, cell := range cfg.Cells {
		sites, hostsPer := cell[0], cell[1]
		run, err := runTelemetryPlane(cfg.Seed, sites, hostsPer, 4, cfg.Ticks, telemetry.SLO{}, false)
		if err != nil {
			return res, fmt.Errorf("cell %dx%d: %w", sites, hostsPer, err)
		}
		res.Cells = append(res.Cells, run.cell(sites, hostsPer))
	}

	// Determinism across tree shapes: same seed, same published bytes
	// at every fanout.
	res.FanoutIdentical = true
	var ref telemetryRun
	for i, fanout := range []int{2, 4, 8} {
		run, err := runTelemetryPlane(cfg.Seed, 8, 4, fanout, cfg.Ticks, telemetry.SLO{}, false)
		if err != nil {
			return res, fmt.Errorf("fanout %d: %w", fanout, err)
		}
		if i == 0 {
			ref = run
		} else if run.jsonl != ref.jsonl || run.alerts != ref.alerts || run.lastJSON != ref.lastJSON {
			res.FanoutIdentical = false
		}
	}

	// Degraded scenario: site s00 goes slow and quiet, the grid SLO
	// burns through, alerts land on the stream esgmon replays.
	slo := telemetry.SLO{StageP999Max: 4 * time.Second, GoodputMinBps: 8e6}
	deg, err := runTelemetryPlane(cfg.Seed+1, 4, 4, 4, cfg.Ticks, slo, true)
	if err != nil {
		return res, fmt.Errorf("slo scenario: %w", err)
	}
	res.SLOAlerts = deg.nAlerts
	res.ReplayJSONL = deg.jsonl
	return res, nil
}

// Rows renders the S16 table.
func (r TelemetryResult) Rows() []Row {
	rows := []Row{}
	for _, c := range r.Cells {
		ratio := 0.0
		if c.LeafBytes > 0 {
			ratio = float64(c.WANBytes) / float64(c.LeafBytes)
		}
		rows = append(rows, Row{
			Label: fmt.Sprintf("%2d sites x %2d hosts", c.Sites, c.HostsPer),
			Value: fmt.Sprintf("WAN %7.1f KB (%3d fr)  flat %8.1f KB  ratio %.2f  exact=%v  qerr<=%d bkt  %s",
				float64(c.WANBytes)/1e3, c.WANFrames, float64(c.LeafBytes)/1e3,
				ratio, c.SketchExact, c.MaxQErrBuckets, mbps(c.GoodputBps)),
		})
	}
	rows = append(rows, Row{
		Label: "fanout determinism",
		Value: fmt.Sprintf("grid+alert streams byte-identical at fanout {2,4,8}: %v", r.FanoutIdentical),
	})
	rows = append(rows, Row{
		Label: "SLO burn scenario",
		Value: fmt.Sprintf("%d grid alerts after site s00 degrades (burn %d ticks)", r.SLOAlerts, 3),
	})
	return rows
}
