package telemetry

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"esgrid/internal/mds"
	"esgrid/internal/netlogger"
	"esgrid/internal/simnet"
	"esgrid/internal/vtime"
)

// gridRun is one complete telemetry-plane run over a simulated WAN:
// hostsPer leaves per site behind a site router, site routers into a
// core, an observer host off the core running the grid root.
type gridRun struct {
	jsonl   string
	alerts  string
	lastSum string
	grids   []GridSnapshot
	traffic []TierTraffic
	render  string
}

func runGrid(t *testing.T, seed int64, sites, hostsPer, fanout, ticks int, slo SLO) gridRun {
	t.Helper()
	clk := vtime.NewSim(seed)
	n := simnet.New(clk)

	p, err := New(Config{Clock: clk, Ticks: ticks, Fanout: fanout, SLO: slo})
	if err != nil {
		t.Fatal(err)
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
			t.Fatal(err)
		}
		for h := 0; h < hostsPer; h++ {
			name := fmt.Sprintf("h%sx%02d", site, h)
			leaf := n.AddHost(name, simnet.HostConfig{})
			n.AddLink(name, router, simnet.LinkConfig{CapacityBps: 100e6, Delay: 2 * time.Millisecond})
			reg, err := p.AddLeaf(site, leaf, nil)
			if err != nil {
				t.Fatal(err)
			}
			regs = append(regs, reg)
		}
	}

	// Synthetic workload: each leaf observes stage latencies and byte
	// deliveries mid-tick (never on a boundary), from a per-leaf seeded
	// stream, so equal seeds replay the exact same observations.
	workload := func(idx int, reg *netlogger.Registry) {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)))
		off := time.Duration(200+idx) * time.Millisecond
		for i := 0; i < ticks; i++ {
			clk.Sleep(off)
			reg.LogHist("stage.retr").Observe(0.05 + rng.Float64()*1.2)
			reg.LogHist("stage.stor").Observe(0.02 + rng.ExpFloat64()*0.3)
			reg.Counter("bytes.total").Add(float64(2_000_000 + rng.Intn(1_000_000)))
			reg.Gauge("queue.depth").Set(float64(rng.Intn(12)))
			clk.Sleep(time.Second - off)
		}
	}

	var runErr error
	clk.Run(func() {
		if runErr = p.Start(); runErr != nil {
			return
		}
		for i, reg := range regs {
			i, reg := i, reg
			clk.Go(func() { workload(i, reg) })
		}
		runErr = p.Wait()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}

	// Ground truth: the flat fold of every leaf registry, which the
	// tree's root must reproduce bit for bit.
	ref := Summary{}
	for _, reg := range regs {
		ref = Merge(ref, Summary{Hosts: 1, RegistrySnapshot: reg.Mergeable()})
	}
	last := p.LastSummary()
	ref.Tick = last.Tick
	wantRef, _ := json.Marshal(ref)
	gotLast, _ := json.Marshal(last)
	if string(wantRef) != string(gotLast) {
		t.Fatalf("root fold != flat fold of all hosts:\n%s\n%s", gotLast, wantRef)
	}

	grids := p.Grids()
	return gridRun{
		jsonl: p.TelemetryJSONL(), alerts: p.AlertJSONL(),
		lastSum: string(gotLast), grids: grids, traffic: p.Traffic(),
		render: RenderGridSnapshot(grids[len(grids)-1], p.Traffic()),
	}
}

func TestPlaneFoldsGridExactlyAndDeterministically(t *testing.T) {
	const sites, hostsPer, ticks = 5, 3, 6
	slo := SLO{StageP999Max: 10 * time.Second} // never breached
	base := runGrid(t, 42, sites, hostsPer, 2, ticks, slo)

	if len(base.grids) != ticks {
		t.Fatalf("grid snapshots = %d, want %d", len(base.grids), ticks)
	}
	last := base.grids[ticks-1]
	if last.Hosts != sites*hostsPer || last.Sites != sites || last.Status != mds.HealthOK {
		t.Fatalf("last snapshot: %+v", last)
	}
	if last.TS != TickTime(last.Tick, time.Second).UTC().Format(time.RFC3339Nano) {
		t.Fatalf("snapshot TS %q is not the tick boundary", last.TS)
	}
	if last.GoodputBps <= 0 || len(last.Stages) != 2 || len(last.SiteRows) != sites {
		t.Fatalf("rollup incomplete: %+v", last)
	}
	for i, r := range last.SiteRows {
		if want := fmt.Sprintf("s%02d", i); r.Site != want || r.Hosts != hostsPer {
			t.Fatalf("site row %d = %+v", i, r)
		}
	}

	// Equal seed, equal outputs — at ANY tree fanout: the published
	// stream is a function of the folded data, not of tree shape or
	// message timing.
	for _, fanout := range []int{2, 4, 8} {
		got := runGrid(t, 42, sites, hostsPer, fanout, ticks, slo)
		if got.jsonl != base.jsonl || got.alerts != base.alerts || got.lastSum != base.lastSum {
			t.Fatalf("fanout %d diverged from fanout 2 output", fanout)
		}
	}
	// A different seed must actually change the stream.
	if other := runGrid(t, 43, sites, hostsPer, 2, ticks, slo); other.jsonl == base.jsonl {
		t.Fatal("different seeds produced identical telemetry")
	}
}

func TestPlaneObserverTrafficAndTiers(t *testing.T) {
	const sites, hostsPer, ticks = 5, 3, 4
	r := runGrid(t, 7, sites, hostsPer, 2, ticks, SLO{})

	byTier := map[string]TierTraffic{}
	for _, tt := range r.traffic {
		byTier[tt.Tier] = tt
	}
	leaf, ok := byTier["t0:leaf"]
	if !ok || leaf.Frames != int64(sites*hostsPer*ticks) {
		t.Fatalf("leaf tier = %+v", leaf)
	}
	site, ok := byTier["t1:site"]
	if !ok || site.Frames != int64(sites*ticks) {
		t.Fatalf("site tier = %+v", site)
	}
	// 5 sites at fanout 2 need one mid tier (3 aggregators).
	mid, ok := byTier["t2:agg1"]
	if !ok || mid.Frames != int64(3*ticks) {
		t.Fatalf("mid tier = %+v", mid)
	}
	if leaf.Bytes <= site.Bytes {
		t.Fatalf("leaf tier (%d B) should outweigh site tier (%d B)", leaf.Bytes, site.Bytes)
	}
}

func TestPlaneSLOBurnAlertsAndHealth(t *testing.T) {
	const sites, hostsPer, ticks = 3, 2, 6
	// Impossible objectives: latency ceiling under the workload's floor
	// and a goodput floor above what leaves deliver — both dimensions
	// breach from tick 1 and burn through at tick 3.
	slo := SLO{StageP999Max: 10 * time.Millisecond, GoodputMinBps: 1e12}
	r := runGrid(t, 11, sites, hostsPer, 4, ticks, slo)

	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(r.alerts), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("alerts = %q", r.alerts)
	}
	if !strings.Contains(lines[0], "slo.stage.burn") || !strings.Contains(lines[1], "slo.goodput.burn") {
		t.Fatalf("alert detectors: %q", lines)
	}
	wantTS := TickTime(3, time.Second).UTC().Format(time.RFC3339Nano)
	if !strings.Contains(lines[0], wantTS) {
		t.Fatalf("alert not at burn tick 3: %q", lines[0])
	}

	if r.grids[0].Status != mds.HealthDegraded || r.grids[ticks-1].Status != mds.HealthDown {
		t.Fatalf("grid status progression: %s .. %s", r.grids[0].Status, r.grids[ticks-1].Status)
	}
	// The last snapshot carries the whole rollup: the grid verdict,
	// then each site's.
	last := r.grids[ticks-1]
	if last.Tick != int64(ticks) || last.Hosts != sites*hostsPer || len(last.SiteRows) != sites {
		t.Fatalf("grid health = %+v", last)
	}
	if s00 := last.SiteRows[0]; s00.Site != "s00" || s00.Status != mds.HealthDown {
		t.Fatalf("site health = %+v", s00)
	}
}

func TestPlaneJSONLAndRender(t *testing.T) {
	r := runGrid(t, 3, 2, 2, 2, 3, SLO{})
	lines := strings.Split(strings.TrimSpace(r.jsonl), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl lines = %d, want 3 grid records", len(lines))
	}
	kind, g, _, err := DecodeTelemetryLine(lines[0])
	if err != nil || kind != "grid" || g.Tick != 1 {
		t.Fatalf("line 0: kind=%q g=%+v err=%v", kind, g, err)
	}
	if _, _, _, err := DecodeTelemetryLine("{nope"); err == nil {
		t.Fatal("bad line decoded")
	}
	for _, want := range []string{"grid @", "s00", "s01", "t0:leaf", "observer traffic"} {
		if !strings.Contains(r.render, want) {
			t.Fatalf("render missing %q:\n%s", want, r.render)
		}
	}
}

func TestPlaneConfigValidation(t *testing.T) {
	clk := vtime.NewSim(1)
	if _, err := New(Config{Clock: clk}); err == nil {
		t.Fatal("Ticks unset accepted")
	}
	if _, err := New(Config{Clock: clk, Ticks: 1, Fanout: 1}); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	if _, err := New(Config{Ticks: 1}); err == nil {
		t.Fatal("nil clock accepted")
	}
	p, err := New(Config{Clock: clk, Ticks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		t.Fatal("start with no root accepted")
	}
	n := simnet.New(clk)
	h := n.AddHost("x", simnet.HostConfig{})
	p.SetRoot(h)
	if err := p.Start(); err == nil {
		t.Fatal("start with no sites accepted")
	}
	if err := p.AddSite("a", h); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSite("a", h); err == nil {
		t.Fatal("duplicate site accepted")
	}
	if _, err := p.AddLeaf("ghost", h, nil); err == nil {
		t.Fatal("leaf on unknown site accepted")
	}
	if err := p.Start(); err == nil {
		t.Fatal("site with no leaves accepted")
	}
}

func TestPlaneRPCHandlers(t *testing.T) {
	g := runGridPlane(t).Grids()
	if len(g) != 2 || g[0].Tick != 1 || g[1].Tick != 2 {
		t.Fatalf("grids = %+v", g)
	}
}

func TestPlaneFailsWhenNetworkDies(t *testing.T) {
	clk := vtime.NewSim(9)
	n := simnet.New(clk)
	p, err := New(Config{Clock: clk, Ticks: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := n.AddHost("obs", simnet.HostConfig{})
	n.AddLink("obs", "core", simnet.LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
	agg := n.AddHost("ag", simnet.HostConfig{})
	n.AddLink("ag", "core", simnet.LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
	leaf := n.AddHost("h0", simnet.HostConfig{})
	n.AddLink("h0", "core", simnet.LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
	p.SetRoot(root)
	if err := p.AddSite("s", agg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddLeaf("s", leaf, nil); err != nil {
		t.Fatal(err)
	}
	// Break name resolution before the first dial: the leaf agent
	// fails and the failure reaches Wait.
	n.SetDNS(false)
	var runErr error
	clk.Run(func() {
		if runErr = p.Start(); runErr != nil {
			return
		}
		runErr = p.Wait()
	})
	if runErr == nil {
		t.Fatal("plane survived a dead name service")
	}
	if g := p.Grids(); len(g) != 0 {
		t.Fatalf("%d snapshots from a failed plane", len(g))
	}
}

// runGridPlane runs a tiny plane and returns it still-populated for
// accessor-level tests.
func runGridPlane(t *testing.T) *Plane {
	t.Helper()
	clk := vtime.NewSim(5)
	n := simnet.New(clk)
	p, err := New(Config{Clock: clk, Ticks: 2})
	if err != nil {
		t.Fatal(err)
	}
	root := n.AddHost("obs", simnet.HostConfig{})
	n.AddLink("obs", "core", simnet.LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
	agg := n.AddHost("ag", simnet.HostConfig{})
	n.AddLink("ag", "core", simnet.LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
	leaf := n.AddHost("h0", simnet.HostConfig{})
	n.AddLink("h0", "core", simnet.LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
	p.SetRoot(root)
	if err := p.AddSite("s", agg); err != nil {
		t.Fatal(err)
	}
	reg, err := p.AddLeaf("s", leaf, nil)
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	clk.Run(func() {
		if runErr = p.Start(); runErr != nil {
			return
		}
		clk.Go(func() {
			clk.Sleep(300 * time.Millisecond)
			reg.Counter("bytes.total").Add(1e6)
			reg.LogHist("stage.retr").Observe(0.1)
		})
		runErr = p.Wait()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return p
}

func TestRenderGridEmptyAndUnits(t *testing.T) {
	got := RenderGridSnapshot(GridSnapshot{}, nil)
	for _, section := range []string{"stage ", "site ", "observer traffic"} {
		if strings.Contains(got, section) {
			t.Fatalf("empty render has a %q section:\n%s", section, got)
		}
	}
	for v, want := range map[float64]string{
		2.5e9: "2.50 Gb/s", 5e6: "5.00 Mb/s", 1.2e3: "1.20 kb/s", 42: "42 b/s",
	} {
		if got := fmtBps(v); got != want {
			t.Errorf("fmtBps(%g) = %q, want %q", v, got, want)
		}
	}
	if k, _, _, err := DecodeTelemetryLine(`{"kind":"alert","alert":{"ts":"x","detector":"d"}}`); err != nil || k != "alert" {
		t.Fatalf("alert line: %q %v", k, err)
	}
}
