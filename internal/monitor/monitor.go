// Package monitor is the online operations plane the paper's SC'00 demo
// ran by hand: NWS sensors and NetLogger life-lines watched live, so the
// operators could see the Dallas↔Berkeley path degrade, attribute it,
// and annotate the timeline (§5, Figure 8). Here that becomes a
// subsystem: the monitor subscribes to the netlogger event stream,
// maintains bounded ring-buffer time series per host and transfer plus
// streaming stage-latency digests, runs a fixed battery of five
// anomaly detectors, and publishes HostHealth/PathHealth verdicts into
// MDS so replica selection can route around unhealthy paths.
//
// The plane is a pure observer by default: it never emits into the log
// it watches, keeps its alerts in its own buffer, and advances its tick
// grid deterministically (ticks are aligned to vtime.Epoch and fired
// before any event at or past the boundary), so an instrumented
// equal-seed run is byte-identical to a bare one.
package monitor

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"esgrid/internal/mds"
	"esgrid/internal/netlogger"
	"esgrid/internal/vtime"
)

// Config wires the monitor plane to its surroundings. The zero value is
// a replay-mode monitor.
type Config struct {
	// Clock drives the live tick loop (Start) and stamps MDS
	// publications. Optional: a replay-mode monitor (esgmon -jsonl) has
	// no clock and advances purely on event timestamps.
	Clock vtime.Clock
	// Info, when set, receives HostHealth/PathHealth records each live
	// tick and supplies the NWS forecasts the collapse detector compares
	// against (with no Info that detector is idle).
	Info *mds.Service
	// Metrics, when set, is sampled each tick for the active-flow gauge.
	Metrics *netlogger.Registry
}

// The plane's cadence, series bound and detector thresholds. They are
// fixed: S14's alert stream and every esgmon replay are pinned at these
// values.
const (
	tickPeriod       = time.Second      // series sampling cadence
	ringLen          = 120              // samples kept per series
	stallAfter       = 3 * time.Second  // no byte progress for this long → stall
	stageStallAfter  = 8 * time.Second  // tape staging longer than this → stall
	collapseFraction = 0.3              // rate below this × forecast is low
	collapseStreak   = 3                // consecutive low samples to alarm
	retryWindow      = 15 * time.Second // retry-storm window
	retryThreshold   = 3                // retries within window to alarm
	gapFactor        = 4                // teardown gap vs baseline mean
	gapMin           = time.Second      // ignore gaps smaller than this
	sensorFailures   = 3                // consecutive probe errors → dead
	decayWindow      = 10 * time.Second // how long an alert colors health
)

// Alert is one detector firing.
type Alert struct {
	Time     time.Time `json:"-"`
	TS       string    `json:"ts"` // Time in RFC3339Nano, for JSONL
	Detector string    `json:"detector"`
	Host     string    `json:"host"`    // host the anomaly is charged to
	Subject  string    `json:"subject"` // file, pair, or host
	Detail   string    `json:"detail"`
}

// When returns the alert time, recovering it from the TS string when
// the Alert crossed an RPC boundary (Time is not marshalled).
func (a Alert) When() time.Time {
	if !a.Time.IsZero() {
		return a.Time
	}
	t, _ := time.Parse(time.RFC3339Nano, a.TS)
	return t
}

// Transfer is the monitor's view of one file transfer, built from
// rm.progress samples and life-line span events.
type Transfer struct {
	File     string
	Replica  string // current source host
	Dest     string // destination host (the RM's site)
	Received int64
	RateBps  float64
	Attempts int
	State    string // queued | staging | active | done

	staging      bool
	stagingSince time.Time
	lastAdvance  time.Time // last byte progress or stage completion
	stallAlerted bool
	lowStreak    int // consecutive sub-forecast rate samples
	lowAlerted   bool
}

// hostState aggregates per-host series and alert history.
type hostState struct {
	name      string
	goodput   *Ring                // bps per tick, sum of flows touching this host
	active    int                  // transfers currently sourced from this host
	alerts    int                  // alerts charged so far
	lastAlert map[string]time.Time // detector → last raise

	lastRetrEnd time.Time // previous gridftp.retr.end, for gap baseline
	gapMean     float64
	gapN        int
	retries     []time.Time // recent retry instants (pruned to window)
	lastStorm   time.Time
}

type pairKey struct{ from, to string }

type pairState struct {
	observed float64
	forecast float64
}

type spanStart struct {
	stage string
	at    time.Time
}

// Monitor is the online plane. All state is guarded by mu; ingest
// happens on the emitting goroutine (via netlogger.Log.Subscribe) and
// the tick loop on its own clock goroutine.
type Monitor struct {
	cfg Config

	mu        sync.Mutex
	nextTick  time.Time
	ticks     int
	transfers map[string]*Transfer
	tOrder    []string
	hosts     map[string]*hostState
	hOrder    []string
	pairs     map[pairKey]*pairState
	pOrder    []pairKey
	stages    map[string]*netlogger.LogHistogram
	flows     *Ring
	starts    map[string]spanStart // trid → open staged span
	alerts    []Alert
	lastSeen  time.Time // latest ingested event timestamp
	stopped   bool
}

// New builds a monitor. Call Attach to feed it a live log, Start to run
// the tick/publication loop, or Observe to replay recorded events.
func New(cfg Config) *Monitor {
	m := &Monitor{
		cfg:       cfg,
		transfers: map[string]*Transfer{},
		hosts:     map[string]*hostState{},
		pairs:     map[pairKey]*pairState{},
		stages:    map[string]*netlogger.LogHistogram{},
		flows:     NewRing(ringLen),
		starts:    map[string]spanStart{},
	}
	if cfg.Clock != nil {
		m.nextTick = nextBoundary(cfg.Clock.Now(), tickPeriod)
	}
	return m
}

// nextBoundary returns the first Epoch-aligned tick boundary strictly
// after t (see vtime.NextTick — the telemetry plane shares this grid).
func nextBoundary(t time.Time, tick time.Duration) time.Time {
	return vtime.NextTick(t, tick)
}

// Attach subscribes the monitor to log's event stream.
func (m *Monitor) Attach(log *netlogger.Log) { log.Subscribe(m.Observe) }

// Start launches the live tick loop: every tick it fires any due series
// boundaries and publishes health into MDS (when Info is set). Requires
// a Clock.
func (m *Monitor) Start() {
	clk := m.cfg.Clock
	clk.Go(func() {
		for {
			clk.Sleep(tickPeriod)
			m.mu.Lock()
			if m.stopped {
				m.mu.Unlock()
				return
			}
			m.advanceLocked(clk.Now())
			hh, ph := m.healthLocked(clk.Now())
			m.mu.Unlock()
			if m.cfg.Info != nil {
				for _, h := range hh {
					_ = m.cfg.Info.PublishHostHealth(h)
				}
				for _, p := range ph {
					_ = m.cfg.Info.PublishPathHealth(p)
				}
			}
		}
	})
}

// Stop halts the live tick loop.
func (m *Monitor) Stop() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
}

// Observe ingests one event: it first fires every tick boundary at or
// before the event's timestamp, then routes the event to the series and
// detectors. Feeding a recorded stream through Observe therefore
// reproduces exactly the live behavior — the tick-before-event order is
// canonical, not an accident of goroutine scheduling.
func (m *Monitor) Observe(ev netlogger.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.nextTick.IsZero() {
		m.nextTick = nextBoundary(ev.Time, tickPeriod)
	}
	if ev.Time.After(m.lastSeen) {
		m.lastSeen = ev.Time
	}
	m.advanceLocked(ev.Time)
	m.handleLocked(ev)
}

// AdvanceTo fires every tick boundary up to t without ingesting an
// event — replay mode's stand-in for the live ticker (e.g. to let
// watchdogs inspect the quiet tail after the last recorded event).
func (m *Monitor) AdvanceTo(t time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.nextTick.IsZero() {
		m.nextTick = nextBoundary(t.Add(-tickPeriod), tickPeriod)
	}
	if t.After(m.lastSeen) {
		m.lastSeen = t
	}
	m.advanceLocked(t)
}

// Now reports the monitor's notion of the current instant: the clock's
// when live, else the latest event timestamp seen (replay mode).
func (m *Monitor) Now() time.Time {
	if m.cfg.Clock != nil {
		return m.cfg.Clock.Now()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSeen
}

// advanceLocked fires all tick boundaries ≤ t.
func (m *Monitor) advanceLocked(t time.Time) {
	if m.nextTick.IsZero() {
		return
	}
	for !m.nextTick.After(t) {
		m.tickLocked(m.nextTick)
		m.nextTick = m.nextTick.Add(tickPeriod)
	}
}

func (m *Monitor) tickLocked(at time.Time) {
	m.ticks++
	// Sample per-host goodput: the sum of last-interval rates of
	// transfers sourced from (or landing at) each host.
	sums := map[string]float64{}
	actives := map[string]int{}
	for _, name := range m.tOrder {
		t := m.transfers[name]
		if t.State != "active" {
			continue
		}
		if t.Replica != "" {
			sums[t.Replica] += t.RateBps
			actives[t.Replica]++
		}
		if t.Dest != "" && t.Dest != t.Replica {
			sums[t.Dest] += t.RateBps
		}
	}
	for _, name := range m.hOrder {
		h := m.hosts[name]
		h.goodput.Push(sums[name])
		h.active = actives[name]
	}
	// New hosts appear in series the tick after their first event; the
	// host() call below registers them. Registration appends to hOrder,
	// which fixes snapshot and dashboard row order for the rest of the
	// run — so the names must be visited in sorted order, not map order,
	// or two hosts first seen on the same tick would land in hOrder (and
	// every exported snapshot) in a run-dependent order.
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := m.hosts[name]; !ok {
			m.host(name).goodput.Push(sums[name])
		}
	}
	if m.cfg.Metrics != nil {
		m.flows.Push(m.cfg.Metrics.Gauge("simnet.flows.active").Value())
	}
	m.stallLocked(at)
}

func (m *Monitor) host(name string) *hostState {
	h := m.hosts[name]
	if h == nil {
		h = &hostState{
			name:      name,
			goodput:   NewRing(ringLen),
			lastAlert: map[string]time.Time{},
		}
		m.hosts[name] = h
		m.hOrder = append(m.hOrder, name)
	}
	return h
}

func (m *Monitor) transfer(file string) *Transfer {
	t := m.transfers[file]
	if t == nil {
		t = &Transfer{File: file, State: "queued"}
		m.transfers[file] = t
		m.tOrder = append(m.tOrder, file)
	}
	return t
}

func (m *Monitor) pair(from, to string) *pairState {
	k := pairKey{from, to}
	p := m.pairs[k]
	if p == nil {
		p = &pairState{}
		m.pairs[k] = p
		m.pOrder = append(m.pOrder, k)
	}
	return p
}

// handleLocked routes one event into the tracked state, then to the
// event-driven detectors.
func (m *Monitor) handleLocked(ev netlogger.Event) {
	switch ev.Name {
	case "rm.file.start":
		t := m.transfer(ev.Fields["file"])
		t.Dest = ev.Host
	case "rm.file.end":
		if f := ev.Fields["file"]; f != "" {
			t := m.transfer(f)
			t.State = "done"
			t.RateBps = 0
		}
	case "rm.attempt.start":
		t := m.transfer(ev.Fields["file"])
		t.Attempts++
		t.Replica = ev.Fields["replica"]
		if t.Dest == "" {
			t.Dest = ev.Host
		}
		if t.State != "done" {
			t.State = "active"
		}
		if t.lastAdvance.IsZero() {
			t.lastAdvance = ev.Time
		}
		m.host(t.Replica)
	case "rm.stage.start":
		if f := ev.Fields["file"]; f != "" {
			t := m.transfer(f)
			t.staging = true
			t.stagingSince = ev.Time
			t.State = "staging"
		}
	case "rm.stage.end":
		if f := ev.Fields["file"]; f != "" {
			t := m.transfer(f)
			t.staging = false
			t.lastAdvance = ev.Time
			if t.State == "staging" {
				t.State = "active"
			}
		}
	case "rm.progress":
		t := m.transfer(ev.Fields["file"])
		if r := ev.Fields["replica"]; r != "" {
			t.Replica = r
		}
		t.Dest = ev.Host
		var recv int64
		fmt.Sscanf(ev.Fields["received"], "%d", &recv)
		var rate float64
		fmt.Sscanf(ev.Fields["ratebps"], "%f", &rate)
		if recv > t.Received {
			t.Received = recv
			t.lastAdvance = ev.Time
			t.stallAlerted = false
		}
		t.RateBps = rate
		if t.Replica != "" && t.Dest != "" {
			p := m.pair(t.Replica, t.Dest)
			p.observed = rate
			if f, ok := m.forecast(t.Replica, t.Dest); ok {
				p.forecast = f
			}
		}
	}
	// Stage-latency digests: staged life-line spans carry a unique trid
	// on both their .start and .end mirror events.
	if trid := ev.Fields["trid"]; trid != "" {
		switch {
		case strings.HasSuffix(ev.Name, ".start"):
			if st := ev.Fields["stage"]; st != "" {
				m.starts[trid] = spanStart{stage: st, at: ev.Time}
			}
		case strings.HasSuffix(ev.Name, ".end"):
			if s, ok := m.starts[trid]; ok {
				delete(m.starts, trid)
				d := m.stages[s.stage]
				if d == nil {
					d = netlogger.NewLogHistogram()
					m.stages[s.stage] = d
				}
				d.ObserveDuration(ev.Time.Sub(s.at))
			}
		}
	}
	m.detectLocked(ev)
}

// raiseLocked records an alert and charges it to the host.
func (m *Monitor) raiseLocked(at time.Time, detector, host, subject, detail string) {
	m.alerts = append(m.alerts, Alert{
		Time: at, TS: at.UTC().Format(time.RFC3339Nano),
		Detector: detector, Host: host, Subject: subject, Detail: detail,
	})
	if host != "" {
		h := m.host(host)
		h.alerts++
		h.lastAlert[detector] = at
	}
}

// Alerts returns all alerts raised so far, in raise order.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// AlertsSince returns alerts from index i on (for incremental tailing).
func (m *Monitor) AlertsSince(i int) []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i >= len(m.alerts) {
		return nil
	}
	return append([]Alert(nil), m.alerts[i:]...)
}

// EncodeAlerts renders an alert stream as one JSON object per line —
// deterministic for equal-seed runs, which S14 and S16 assert byte for
// byte. The telemetry plane's grid-level SLO alerts share this encoding
// so site and grid tiers diff against the same golden files.
func EncodeAlerts(alerts []Alert) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, a := range alerts {
		_ = enc.Encode(a)
	}
	return b.String()
}

// AlertJSONL renders the alert stream via EncodeAlerts.
func (m *Monitor) AlertJSONL() string { return EncodeAlerts(m.Alerts()) }

// statusOf derives a host's health status from its recent alert
// history: stall-class alerts within the decay window mean down,
// anything else recent means degraded.
func (m *Monitor) statusOf(h *hostState, now time.Time) string {
	recent := func(det string) bool {
		t, ok := h.lastAlert[det]
		return ok && now.Sub(t) <= decayWindow
	}
	switch {
	case recent(DetectorStall):
		return mds.HealthDown
	case recent(DetectorCollapse) || recent(DetectorRetryStorm) ||
		recent(DetectorTeardownGap) || recent(DetectorSensorDead):
		return mds.HealthDegraded
	}
	return mds.HealthOK
}

// healthLocked computes the records a live tick publishes.
func (m *Monitor) healthLocked(now time.Time) ([]mds.HostHealth, []mds.PathHealth) {
	hh := make([]mds.HostHealth, 0, len(m.hOrder))
	for _, name := range m.hOrder {
		h := m.hosts[name]
		hh = append(hh, mds.HostHealth{
			Host:            name,
			Status:          m.statusOf(h, now),
			GoodputBps:      h.goodput.Last(),
			ActiveTransfers: h.active,
			Alerts:          h.alerts,
			Updated:         now,
		})
	}
	ph := make([]mds.PathHealth, 0, len(m.pOrder))
	for _, k := range m.pOrder {
		p := m.pairs[k]
		status := mds.HealthOK
		if h, ok := m.hosts[k.from]; ok {
			status = m.statusOf(h, now)
		}
		ph = append(ph, mds.PathHealth{
			From: k.from, To: k.to,
			Status:      status,
			ObservedBps: p.observed,
			ForecastBps: p.forecast,
			Updated:     now,
		})
	}
	return hh, ph
}

// Health returns the records a tick at the given instant would publish
// (exported for replay mode and tests).
func (m *Monitor) Health(now time.Time) ([]mds.HostHealth, []mds.PathHealth) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthLocked(now)
}

// HostStat, TransferStat, StageStat, and Snapshot are the wire-friendly
// view esgmon renders.
type HostStat struct {
	Host       string  `json:"host"`
	Status     string  `json:"status"`
	GoodputBps float64 `json:"goodput_bps"`
	MeanBps    float64 `json:"mean_bps"` // over the ring
	Active     int     `json:"active"`
	Alerts     int     `json:"alerts"`
}

type TransferStat struct {
	File     string  `json:"file"`
	Replica  string  `json:"replica"`
	State    string  `json:"state"`
	Received int64   `json:"received"`
	RateBps  float64 `json:"rate_bps"`
	Attempts int     `json:"attempts"`
}

type StageStat struct {
	Stage string  `json:"stage"`
	N     int64   `json:"n"`
	P50   float64 `json:"p50_s"`
	P99   float64 `json:"p99_s"`
	P999  float64 `json:"p999_s"`
	Max   float64 `json:"max_s"`
}

type Snapshot struct {
	Now         time.Time      `json:"now"`
	Ticks       int            `json:"ticks"`
	ActiveFlows float64        `json:"active_flows"`
	Hosts       []HostStat     `json:"hosts"`
	Transfers   []TransferStat `json:"transfers"`
	Stages      []StageStat    `json:"stages"`
	Alerts      []Alert        `json:"alerts"`
}

// Snapshot captures the full dashboard state at the given instant.
func (m *Monitor) Snapshot(now time.Time) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{Now: now, Ticks: m.ticks, ActiveFlows: m.flows.Last()}
	for _, name := range m.hOrder {
		h := m.hosts[name]
		s.Hosts = append(s.Hosts, HostStat{
			Host:       name,
			Status:     m.statusOf(h, now),
			GoodputBps: h.goodput.Last(),
			MeanBps:    h.goodput.Mean(0),
			Active:     h.active,
			Alerts:     h.alerts,
		})
	}
	for _, name := range m.tOrder {
		t := m.transfers[name]
		s.Transfers = append(s.Transfers, TransferStat{
			File: t.File, Replica: t.Replica, State: t.State,
			Received: t.Received, RateBps: t.RateBps, Attempts: t.Attempts,
		})
	}
	stages := make([]string, 0, len(m.stages))
	for st := range m.stages {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	for _, st := range stages {
		tail := m.stages[st].Tail()
		s.Stages = append(s.Stages, StageStat{
			Stage: st, N: tail.N,
			P50: tail.P50, P99: tail.P99, P999: tail.P999, Max: tail.Max,
		})
	}
	s.Alerts = append(s.Alerts, m.alerts...)
	return s
}
