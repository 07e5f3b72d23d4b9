package telemetry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"esgrid/internal/mds"
	"esgrid/internal/monitor"
	"esgrid/internal/netlogger"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

// HostNet is the network identity a telemetry agent runs on: a simnet
// host in the experiments, anything name-addressable in principle.
type HostNet interface {
	transport.Network
	Name() string
}

// The plane's fixed shape. Equal-seed S16 artifacts are pinned at these
// values.
const (
	tickPeriod = time.Second // Epoch-aligned fold cadence
	// basePort is the leaf→site telemetry port; tier t aggregators
	// listen on basePort+t so one host can serve several tiers.
	basePort = 7070
	// goodputCounter names the byte counter goodput is derived from;
	// rates are bits per second over a tick.
	goodputCounter = "bytes.total"
	// stagePrefix selects the stage-latency histograms SLOs watch.
	stagePrefix = "stage."
	// burnTicks is how many consecutive breaching ticks turn a
	// degradation into an alert (burn-rate detection).
	burnTicks = 3
)

// SLO holds the grid service-level objectives the root enforces. Both
// thresholds are optional (zero disables); GoodputMinBps is a per-host
// floor, scaled by the number of hosts a summary covers before
// comparison.
type SLO struct {
	// StageP999Max is the worst acceptable p999 across stage-latency
	// histograms (names under "stage.").
	StageP999Max time.Duration
	// GoodputMinBps is the minimum acceptable delivered rate per host.
	GoodputMinBps float64
}

// burnState tracks one SLO dimension's consecutive-breach streak.
type burnState struct{ streak int }

// observe advances the streak and reports the resulting health status
// plus whether the streak just crossed the burn threshold (the rising
// edge on which an alert fires).
func (b *burnState) observe(breach bool) (string, bool) {
	if !breach {
		b.streak = 0
		return mds.HealthOK, false
	}
	b.streak++
	if b.streak >= burnTicks {
		return mds.HealthDown, b.streak == burnTicks
	}
	return mds.HealthDegraded, false
}

func worseStatus(a, b string) string {
	rank := func(s string) int {
		switch s {
		case mds.HealthDown:
			return 2
		case mds.HealthDegraded:
			return 1
		}
		return 0
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

// Config parameterises a telemetry plane.
type Config struct {
	Clock vtime.Clock
	// Ticks is how many folds each agent performs before the plane
	// drains; required.
	Ticks int
	// Fanout bounds the children of any aggregator above the site tier
	// (default 4, minimum 2).
	Fanout int
	SLO    SLO
}

// TierTraffic is the observer-path cost of one tree tier: every frame
// and byte its agents sent uplink.
type TierTraffic struct {
	Tier   string `json:"tier"`
	Frames int64  `json:"frames"`
	Bytes  int64  `json:"bytes"`
}

// GridSnapshot is the root's published view of one tick. Timestamps are
// the logical tick boundary, never a message arrival instant, so equal
// seeds produce byte-identical snapshots at any tree fanout.
type GridSnapshot struct {
	Tick       int64               `json:"tick"`
	TS         string              `json:"ts"`
	Hosts      int64               `json:"hosts"`
	Sites      int                 `json:"sites"`
	GoodputBps float64             `json:"goodput_bps"`
	Status     string              `json:"status"`
	Stages     []monitor.StageStat `json:"stages,omitempty"`
	SiteRows   []SiteRow           `json:"site_rows,omitempty"`
}

// TickTime maps a tick index back to its boundary instant on the
// Epoch-aligned grid.
func TickTime(idx int64, tick time.Duration) time.Time {
	return vtime.Epoch.Add(time.Duration(idx) * tick)
}

type leafDef struct {
	host HostNet
	reg  *netlogger.Registry
}

type siteDef struct {
	name   string
	agg    HostNet
	leaves []leafDef
}

// Plane wires leaves, site aggregators and a grid root into a running
// telemetry tree over the simulated network.
type Plane struct {
	cfg  Config
	mu   sync.Mutex
	done vtime.Cond

	sites    map[string]*siteDef
	rootHost HostNet
	started  bool

	rootDone  bool
	err       error
	grids     []GridSnapshot
	alerts    []monitor.Alert
	lines     []string
	lastSum   Summary
	traffic   map[string]*TierTraffic
	stageBurn burnState
	goodBurn  burnState
	prevBytes float64

	listeners []transport.Listener
}

// New creates an unstarted plane.
func New(cfg Config) (*Plane, error) {
	if cfg.Clock == nil {
		return nil, errors.New("telemetry: Config.Clock is required")
	}
	if cfg.Ticks <= 0 {
		return nil, errors.New("telemetry: Config.Ticks must be positive")
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = 4
	}
	if cfg.Fanout < 2 {
		return nil, errors.New("telemetry: Config.Fanout must be at least 2")
	}
	p := &Plane{
		cfg:     cfg,
		sites:   map[string]*siteDef{},
		traffic: map[string]*TierTraffic{},
	}
	p.done = cfg.Clock.NewCond(&p.mu)
	return p, nil
}

// AddSite registers a site and the host its aggregator runs on.
func (p *Plane) AddSite(name string, aggHost HostNet) error {
	if p.started {
		return errors.New("telemetry: AddSite after Start")
	}
	if _, dup := p.sites[name]; dup {
		return fmt.Errorf("telemetry: duplicate site %q", name)
	}
	p.sites[name] = &siteDef{name: name, agg: aggHost}
	return nil
}

// AddLeaf registers a reporting host under a site. reg is the host's
// instrument registry; pass nil to have the plane create one. The
// registry in use is returned either way.
func (p *Plane) AddLeaf(site string, host HostNet, reg *netlogger.Registry) (*netlogger.Registry, error) {
	if p.started {
		return nil, errors.New("telemetry: AddLeaf after Start")
	}
	s, ok := p.sites[site]
	if !ok {
		return nil, fmt.Errorf("telemetry: unknown site %q", site)
	}
	if reg == nil {
		reg = netlogger.NewRegistry(p.cfg.Clock)
	}
	s.leaves = append(s.leaves, leafDef{host: host, reg: reg})
	return reg, nil
}

// SetRoot names the host the grid root runs on.
func (p *Plane) SetRoot(host HostNet) { p.rootHost = host }

// aggNode is one running aggregator: a site fold, a mid-tier fold, or
// the grid root. Each runs as a single managed goroutine that accepts
// its children, then per tick reads one frame from every child in
// sorted-name order, folds, and forwards — so fold order is fixed by
// construction and no lock is ever held across a blocking operation.
type aggNode struct {
	p          *Plane
	name       string
	host       HostNet
	ln         transport.Listener
	parentAddr string
	children   []string // sorted child node names
	tierLabel  string   // traffic tier of this node's uplink sends
	isSite     bool
	site       string
	isRoot     bool

	prevBytes float64
	burn      burnState
}

// Start freezes the topology, builds the aggregation tree, opens every
// listener, and launches the agents. Site aggregators fold their
// leaves; above them, the sorted site list is chunked Fanout-wide per
// tier until one root fold remains. Chunks are contiguous in sorted
// order, so concatenating child drill-down rows keeps them sorted.
func (p *Plane) Start() error {
	if p.started {
		return errors.New("telemetry: already started")
	}
	if p.rootHost == nil {
		return errors.New("telemetry: SetRoot before Start")
	}
	if len(p.sites) == 0 {
		return errors.New("telemetry: no sites")
	}
	siteNames := make([]string, 0, len(p.sites))
	for name := range p.sites {
		siteNames = append(siteNames, name)
	}
	sort.Strings(siteNames)

	var all []*aggNode
	level := make([]*aggNode, 0, len(siteNames))
	for _, name := range siteNames {
		s := p.sites[name]
		if len(s.leaves) == 0 {
			return fmt.Errorf("telemetry: site %q has no leaves", name)
		}
		children := make([]string, len(s.leaves))
		for i, l := range s.leaves {
			children[i] = l.host.Name()
		}
		sort.Strings(children)
		level = append(level, &aggNode{
			p: p, name: "site:" + name, host: s.agg,
			children: children, tierLabel: "t1:site",
			isSite: true, site: name,
		})
	}
	all = append(all, level...)

	tier := 0
	for len(level) > p.cfg.Fanout {
		tier++
		var next []*aggNode
		for i := 0; i < len(level); i += p.cfg.Fanout {
			chunk := level[i:min(i+p.cfg.Fanout, len(level))]
			a := &aggNode{
				p:    p,
				name: fmt.Sprintf("agg:%d:%d", tier, i/p.cfg.Fanout),
				host: chunk[0].host, tierLabel: fmt.Sprintf("t%d:agg%d", tier+1, tier),
				children: nodeNames(chunk),
			}
			addr := hostPort(a.host.Name(), basePort+tier)
			for _, c := range chunk {
				c.parentAddr = addr
			}
			next = append(next, a)
		}
		all = append(all, next...)
		level = next
	}
	root := &aggNode{
		p: p, name: "grid", host: p.rootHost,
		children: nodeNames(level), isRoot: true,
	}
	rootAddr := hostPort(root.host.Name(), basePort+tier+1)
	for _, c := range level {
		c.parentAddr = rootAddr
	}
	all = append(all, root)

	// Bind every listener before any agent runs, so dials cannot race
	// listener setup.
	for _, a := range all {
		port := basePort
		switch {
		case a.isRoot:
			port += tier + 1
		case !a.isSite:
			var t int
			fmt.Sscanf(a.name, "agg:%d:", &t)
			port += t
		}
		ln, err := a.host.Listen(hostPort(a.host.Name(), port))
		if err != nil {
			p.closeListeners()
			return fmt.Errorf("telemetry: %s: %w", a.name, err)
		}
		a.ln = ln
		p.listeners = append(p.listeners, ln)
	}

	p.started = true
	for _, a := range all {
		a := a
		p.cfg.Clock.Go(a.run)
	}
	for _, name := range siteNames {
		s := p.sites[name]
		addr := hostPort(s.agg.Name(), basePort)
		for _, l := range s.leaves {
			l := l
			p.cfg.Clock.Go(func() { p.runLeaf(l, addr) })
		}
	}
	return nil
}

func nodeNames(nodes []*aggNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.name
	}
	return out
}

func hostPort(host string, port int) string { return fmt.Sprintf("%s:%d", host, port) }

// runLeaf is the host-side agent: every tick boundary it snapshots the
// local registry and ships the summary to its site aggregator.
func (p *Plane) runLeaf(l leafDef, parentAddr string) {
	conn, err := l.host.Dial(parentAddr)
	if err != nil {
		p.fail(fmt.Errorf("telemetry: leaf %s dial: %w", l.host.Name(), err))
		return
	}
	defer conn.Close()
	clk := p.cfg.Clock
	for i := 0; i < p.cfg.Ticks; i++ {
		b := vtime.NextTick(clk.Now(), tickPeriod)
		clk.Sleep(b.Sub(clk.Now()))
		tick := int64(b.Sub(vtime.Epoch) / tickPeriod)
		sum := Summary{Tick: tick, Hosts: 1, RegistrySnapshot: l.reg.Mergeable()}
		payload, err := EncodeFrame(Frame{Node: l.host.Name(), Tick: tick, Sum: sum})
		if err == nil {
			_, err = conn.Write(payload)
		}
		if err != nil {
			p.fail(fmt.Errorf("telemetry: leaf %s send: %w", l.host.Name(), err))
			return
		}
		p.account("t0:leaf", len(payload))
	}
}

// run is an aggregator's whole life: accept one connection per child
// (the first frame on each names its sender), then fold tick by tick,
// reading children in sorted-name order. Message-driven folding means
// an aggregator never consults the clock: frames carry their tick, and
// a tick folds exactly when its last child frame is consumed.
func (a *aggNode) run() {
	defer a.ln.Close()
	p := a.p

	conns := make(map[string]transport.Conn, len(a.children))
	firsts := make(map[string]Frame, len(a.children))
	for len(conns) < len(a.children) {
		c, err := a.ln.Accept()
		if err != nil {
			p.fail(fmt.Errorf("telemetry: %s accept: %w", a.name, err))
			return
		}
		var f Frame
		if err := transport.ReadJSON(c, &f); err != nil {
			p.fail(fmt.Errorf("telemetry: %s first frame: %w", a.name, err))
			return
		}
		if _, dup := conns[f.Node]; dup || !a.expects(f.Node) {
			p.fail(fmt.Errorf("telemetry: %s: unexpected child %q", a.name, f.Node))
			return
		}
		conns[f.Node], firsts[f.Node] = c, f
	}
	defer func() {
		for _, name := range a.children {
			conns[name].Close()
		}
	}()

	var up transport.Conn
	if !a.isRoot {
		var err error
		if up, err = a.host.Dial(a.parentAddr); err != nil {
			p.fail(fmt.Errorf("telemetry: %s dial parent: %w", a.name, err))
			return
		}
		defer up.Close()
	}

	var rows []SiteRow
	for t := 0; t < p.cfg.Ticks; t++ {
		var sum Summary
		rows = rows[:0]
		tick := int64(-1)
		for _, child := range a.children {
			f := firsts[child]
			if t > 0 {
				f = Frame{}
				if err := transport.ReadJSON(conns[child], &f); err != nil {
					p.fail(fmt.Errorf("telemetry: %s read %s: %w", a.name, child, err))
					return
				}
				if f.Node != child {
					p.fail(fmt.Errorf("telemetry: %s: frame from %q on %q's stream", a.name, f.Node, child))
					return
				}
			}
			if tick < 0 {
				tick = f.Tick
			} else if f.Tick != tick {
				p.fail(fmt.Errorf("telemetry: %s: tick skew %d vs %d from %s", a.name, f.Tick, tick, child))
				return
			}
			sum = Merge(sum, f.Sum)
			rows = append(rows, f.Sites...)
		}
		if a.isSite {
			rows = append(rows[:0], a.siteRow(sum))
		}
		if a.isRoot {
			p.rootFold(tick, sum, rows)
			continue
		}
		payload, err := EncodeFrame(Frame{Node: a.name, Tick: tick, Sum: sum, Sites: rows})
		if err == nil {
			_, err = up.Write(payload)
		}
		if err != nil {
			p.fail(fmt.Errorf("telemetry: %s send: %w", a.name, err))
			return
		}
		p.account(a.tierLabel, len(payload))
	}
}

func (a *aggNode) expects(child string) bool {
	for _, c := range a.children {
		if c == child {
			return true
		}
	}
	return false
}

// siteRow derives the site's drill-down row from its folded summary:
// goodput from the byte-counter delta over the tick, worst stage p999,
// and SLO status from its own burn streak.
func (a *aggNode) siteRow(sum Summary) SiteRow {
	p := a.p
	cur := sum.Counter(goodputCounter)
	goodput := (cur - a.prevBytes) * 8 / tickPeriod.Seconds()
	a.prevBytes = cur
	_, p999, _ := stageTails(sum)
	breach := p.cfg.SLO.stageBreach(p999) || p.cfg.SLO.goodputBreach(goodput, sum.Hosts)
	status, _ := a.burn.observe(breach)
	return SiteRow{
		Site: a.site, Hosts: sum.Hosts,
		GoodputBps: goodput, StageP999s: p999, Status: status,
	}
}

func (s SLO) stageBreach(p999s float64) bool {
	return s.StageP999Max > 0 && p999s > s.StageP999Max.Seconds()
}

func (s SLO) goodputBreach(goodputBps float64, hosts int64) bool {
	return s.GoodputMinBps > 0 && goodputBps < s.GoodputMinBps*float64(hosts)
}

// stageTails returns the tail row of each stage histogram in sum, and
// the worst p999 among them with the stage that owns it.
func stageTails(sum Summary) (rows []monitor.StageStat, p999 float64, worst string) {
	for _, nh := range sum.Hists {
		if !strings.HasPrefix(nh.Name, stagePrefix) {
			continue
		}
		t := nh.H.Tail()
		rows = append(rows, monitor.StageStat{Stage: nh.Name, Tail: t})
		if t.P999 > p999 {
			p999, worst = t.P999, nh.Name
		}
	}
	return rows, p999, worst
}

// rootFold finalises one tick at the grid root: derive the rollup,
// advance the SLO burn streaks, fire rising-edge alerts, and append the
// JSONL record stream.
func (p *Plane) rootFold(tick int64, sum Summary, rows []SiteRow) {
	ts := TickTime(tick, tickPeriod)
	tsStr := ts.UTC().Format(time.RFC3339Nano)

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rootDone {
		return
	}

	cur := sum.Counter(goodputCounter)
	goodput := (cur - p.prevBytes) * 8 / tickPeriod.Seconds()
	p.prevBytes = cur
	stages, p999, worstStage := stageTails(sum)

	stStatus, stFired := p.stageBurn.observe(p.cfg.SLO.stageBreach(p999))
	gpStatus, gpFired := p.goodBurn.observe(p.cfg.SLO.goodputBreach(goodput, sum.Hosts))
	status := worseStatus(stStatus, gpStatus)

	snap := GridSnapshot{
		Tick: tick, TS: tsStr,
		Hosts: sum.Hosts, Sites: len(rows),
		GoodputBps: goodput, Status: status,
		Stages:   stages,
		SiteRows: append([]SiteRow(nil), rows...),
	}
	p.grids = append(p.grids, snap)
	p.lastSum = sum.Clone()
	p.appendLine(jsonlLine{Kind: "grid", Grid: &snap})

	if stFired {
		p.fireAlert(ts, "slo.stage.burn", worstStage, fmt.Sprintf(
			"stage p999 %.3fs over SLO %.3fs for %d ticks",
			p999, p.cfg.SLO.StageP999Max.Seconds(), burnTicks))
	}
	if gpFired {
		p.fireAlert(ts, "slo.goodput.burn", goodputCounter, fmt.Sprintf(
			"grid goodput %.3g bps under floor %.3g bps for %d ticks",
			goodput, p.cfg.SLO.GoodputMinBps*float64(sum.Hosts), burnTicks))
	}

	if len(p.grids) >= p.cfg.Ticks {
		p.rootDone = true
		p.done.Broadcast()
	}
}

func (p *Plane) fireAlert(ts time.Time, detector, subject, detail string) {
	a := monitor.Alert{
		Time: ts, TS: ts.UTC().Format(time.RFC3339Nano),
		Detector: detector, Host: "grid", Subject: subject, Detail: detail,
	}
	p.alerts = append(p.alerts, a)
	p.appendLine(jsonlLine{Kind: "alert", Alert: &a})
}

// account charges one uplink send to a traffic tier.
func (p *Plane) account(tier string, n int) {
	p.mu.Lock()
	t := p.traffic[tier]
	if t == nil {
		t = &TierTraffic{Tier: tier}
		p.traffic[tier] = t
	}
	t.Frames++
	t.Bytes += int64(n)
	p.mu.Unlock()
}

// fail records the first error and unblocks Wait; the plane is dead.
func (p *Plane) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.rootDone = true
	p.done.Broadcast()
	p.mu.Unlock()
}

func (p *Plane) closeListeners() {
	for _, ln := range p.listeners {
		ln.Close()
	}
	p.listeners = nil
}

// Wait blocks until the root has folded Config.Ticks ticks (or the
// plane failed) and returns the first error.
func (p *Plane) Wait() error {
	p.mu.Lock()
	for !p.rootDone {
		p.done.Wait()
	}
	err := p.err
	p.mu.Unlock()
	return err
}

// Grids returns every grid snapshot folded so far, in tick order.
func (p *Plane) Grids() []GridSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]GridSnapshot(nil), p.grids...)
}

// LastSummary returns a copy of the root's most recent folded summary —
// the exact mergeable state, for ground-truth comparison.
func (p *Plane) LastSummary() Summary {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSum.Clone()
}

// Alerts returns the grid SLO alerts fired so far.
func (p *Plane) Alerts() []monitor.Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]monitor.Alert(nil), p.alerts...)
}

// AlertJSONL renders the alert stream in the monitor's JSONL framing.
func (p *Plane) AlertJSONL() string { return monitor.EncodeAlerts(p.Alerts()) }

// Traffic returns per-tier observer-path cost, sorted by tier label
// (t0 leaves first, then each aggregation tier going up).
func (p *Plane) Traffic() []TierTraffic {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TierTraffic, 0, len(p.traffic))
	for _, t := range p.traffic { //esglint:unordered — sorted below
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tier < out[j].Tier })
	return out
}
