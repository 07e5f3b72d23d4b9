package experiments

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"esgrid/internal/chaos"
	"esgrid/internal/flight"
	"esgrid/internal/gridftp"
	"esgrid/internal/mds"
	"esgrid/internal/monitor"
	"esgrid/internal/nws"
	"esgrid/internal/rm"
	"esgrid/internal/simnet"
)

// S14 — detector ground truth. Each MonitorCase replays a hand-labeled
// chaos schedule of a single fault kind on the S13 replication topology
// with the full observation plane attached (NWS sensor + probe
// responder, MDS, monitor), then scores the monitor's alerts against
// the known fault windows: precision per detector, recall and detection
// latency per fault, all per fault kind.

// MonitorConfig parameterizes the S14 sweep.
type MonitorConfig struct {
	Seed int64
	// Grace extends each fault's truth window past its heal time:
	// detectors observing a 3 s stall of a 5 s outage legitimately fire
	// after the fault itself has ended.
	Grace time.Duration
}

// DefaultMonitorConfig matches the chaos defaults the schedules were
// sized against.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{Seed: 14, Grace: 10 * time.Second}
}

// MonitorCase is one labeled scenario: a fault kind, the schedule that
// injects it, and the detectors that may legitimately fire inside its
// truth windows.
type MonitorCase struct {
	Name    string
	Primary string   // the detector expected to catch this fault kind
	Accept  []string // detectors acceptable inside the truth windows
	Replica string   // single-replica catalog host: "ncar" (disk) or "lbnl" (tape)
	Files   int
	FileMB  int64
	Faults  []chaos.Fault
}

// MonitorCases is the S14 suite: five fault kinds, each pinned to the
// detector that owns it. Fault timing is sized against the case's
// payload so every injection lands while transfers are in flight (the
// dns case's sensor keeps probing after the last byte, so its second
// outage may outlive the transfers).
func MonitorCases() []MonitorCase {
	return []MonitorCase{
		{
			Name:    "host.crash",
			Primary: monitor.DetectorStall,
			Accept: []string{monitor.DetectorStall, monitor.DetectorRetryStorm,
				monitor.DetectorTeardownGap, monitor.DetectorSensorDead},
			Replica: "ncar", Files: 8, FileMB: 16,
			Faults: []chaos.Fault{
				{Kind: chaos.KindHostCrash, Target: "ncar", Start: 3 * time.Second, Duration: 5 * time.Second},
				{Kind: chaos.KindHostCrash, Target: "ncar", Start: 12 * time.Second, Duration: 5 * time.Second},
				{Kind: chaos.KindHostCrash, Target: "ncar", Start: 21 * time.Second, Duration: 5 * time.Second},
			},
		},
		{
			Name:    "link.degrade",
			Primary: monitor.DetectorCollapse,
			Accept: []string{monitor.DetectorCollapse, monitor.DetectorStall,
				monitor.DetectorTeardownGap},
			Replica: "ncar", Files: 8, FileMB: 32,
			Faults: []chaos.Fault{
				{Kind: chaos.KindLinkDegrade, Target: "ncar-isp", Start: 3 * time.Second, Duration: 8 * time.Second, Factor: 0.04},
				{Kind: chaos.KindLinkDegrade, Target: "ncar-isp", Start: 16 * time.Second, Duration: 8 * time.Second, Factor: 0.04},
				{Kind: chaos.KindLinkDegrade, Target: "ncar-isp", Start: 29 * time.Second, Duration: 8 * time.Second, Factor: 0.04},
			},
		},
		{
			Name:    "link.flap",
			Primary: monitor.DetectorRetryStorm,
			Accept: []string{monitor.DetectorRetryStorm, monitor.DetectorStall,
				monitor.DetectorTeardownGap, monitor.DetectorCollapse},
			Replica: "ncar", Files: 8, FileMB: 16,
			Faults: []chaos.Fault{
				{Kind: chaos.KindLinkFlap, Target: "ncar-isp", Start: 3 * time.Second, Duration: 15 * time.Second, Count: 5},
			},
		},
		{
			Name:    "hrm.stall",
			Primary: monitor.DetectorStall,
			Accept: []string{monitor.DetectorStall, monitor.DetectorTeardownGap,
				monitor.DetectorRetryStorm},
			Replica: "lbnl", Files: 6, FileMB: 16,
			Faults: []chaos.Fault{
				{Kind: chaos.KindHRMStall, Target: "lbnl", Start: 2 * time.Second, Duration: 10 * time.Second, Delay: 12 * time.Second},
				{Kind: chaos.KindHRMStall, Target: "lbnl", Start: 23 * time.Second, Duration: 10 * time.Second, Delay: 12 * time.Second},
			},
		},
		{
			Name:    "dns.outage",
			Primary: monitor.DetectorSensorDead,
			Accept: []string{monitor.DetectorSensorDead, monitor.DetectorStall,
				monitor.DetectorRetryStorm, monitor.DetectorTeardownGap},
			Replica: "ncar", Files: 6, FileMB: 16,
			Faults: []chaos.Fault{
				{Kind: chaos.KindDNSOutage, Start: 2 * time.Second, Duration: 6 * time.Second},
				{Kind: chaos.KindDNSOutage, Start: 14 * time.Second, Duration: 6 * time.Second},
			},
		},
	}
}

// MonitorRun is one instrumented execution of a case.
type MonitorRun struct {
	Elapsed    time.Duration
	Start      time.Time // virtual instant faults+submit were scheduled
	JSONL      string    // full event stream (byte-identical with or without monitor)
	AlertJSONL string
	Alerts     []monitor.Alert
	Statuses   []rm.FileStatus
	Healths    []mds.HostHealth
	// Flight is the run's always-on flight recorder (see ChaosRun.Flight).
	Flight *flight.Recorder
}

// RunMonitorCase executes one labeled scenario. withMonitor=false runs
// the identical system without the monitor attached — the pure-observer
// check diffs the two event streams byte for byte.
func RunMonitorCase(c MonitorCase, seed int64, grace time.Duration, withMonitor bool) (MonitorRun, error) {
	if c.Files <= 0 || c.FileMB <= 0 {
		return MonitorRun{}, fmt.Errorf("experiments: bad monitor case %+v", c)
	}
	t, err := newTriangle(seed, simnet.LinkConfig{CapacityBps: 100e6, Delay: 6 * time.Millisecond}, 82e6,
		c.Files, c.FileMB, "mon", c.Replica)
	if err != nil {
		return MonitorRun{}, err
	}
	info, err := mds.New(t.dir)
	if err == nil {
		err = t.injector.Validate(chaos.Schedule(c.Faults))
	}
	if err != nil {
		return MonitorRun{}, err
	}

	// The run must outlive the last truth window so late-firing
	// detectors (and the dns case's post-transfer probes) are captured.
	var horizon time.Duration
	for _, f := range c.Faults {
		if end := f.Start + f.Duration + grace; end > horizon {
			horizon = end
		}
	}

	run := MonitorRun{Flight: t.rec}
	var mon *monitor.Monitor
	err = t.Run(func() {
		// Fine-grained MODE E blocks: sink coverage (and so the
		// rm.progress rate samples the collapse detector consumes)
		// advances in BlockSize steps. At the default 4 MB a degraded
		// link shows alternating zero/33 Mb/s samples — indistinguishable
		// from a stall; at 256 KB the sampled rate tracks the true
		// degraded rate.
		if !t.start(gridftp.Config{BlockSize: 256 << 10}) {
			return
		}

		// Observation plane: probe responder at the destination, sensor
		// probing both replica→dest paths, forecasts into MDS.
		prober := t.ActiveProber("anl")
		if prober == nil {
			return
		}
		sensor := nws.NewSensor(t.Clock, prober, info, 2*time.Second)
		sensor.Watch("ncar", "anl")
		sensor.Watch("lbnl", "anl")
		sensor.Instrument(t.log, "anl")
		// Warm-up: the collapse detector needs a forecast baseline before
		// the first fault lands.
		for i := 0; i < 3; i++ {
			sensor.MeasureNow()
		}
		sensor.Start()

		if withMonitor {
			mon = monitor.New(monitor.Config{
				Clock: t.Clock, Info: info, Metrics: t.metrics,
			})
			mon.Attach(t.log)
			mon.Start()
		}

		req, start := t.submit("mon", chaos.Schedule(c.Faults), 40, time.Second)
		if req == nil {
			return
		}
		run.Start = start
		t.Fail(req.Wait())
		run.Elapsed = t.Clock.Now().Sub(run.Start)
		run.Statuses = req.Status()
		// Drain teardown and keep the sensor probing through the last
		// truth window, then a little past it for deterministic endings.
		if tail := run.Start.Add(horizon).Sub(t.Clock.Now()); tail > 0 {
			t.Clock.Sleep(tail)
		}
		t.Clock.Sleep(2 * time.Second)
	})
	if err != nil {
		return run, err
	}
	run.JSONL = t.log.JSONL()
	if mon != nil {
		mon.Stop()
		run.AlertJSONL = mon.AlertJSONL()
		run.Alerts = mon.Alerts()
		if hs, err := info.HostHealths(); err == nil {
			run.Healths = hs
		}
	}
	return run, nil
}

// DetectorScore aggregates one detector's precision across a run set:
// an alert is a true positive when it lands inside some truth window
// whose case accepts that detector.
type DetectorScore struct {
	Detector  string
	TruePos   int
	FalsePos  int
	Precision float64
}

// MonitorCaseResult scores one case run.
type MonitorCaseResult struct {
	Name        string
	Faults      int
	Detected    int // faults with a primary-detector alert inside their window
	Recall      float64
	MeanLatency time.Duration // fault start → first primary alert, over detected faults
	Alerts      int
	Elapsed     time.Duration
	Scores      []DetectorScore
	AlertJSONL  string
}

// scoreCase labels every alert against the case's truth windows.
func scoreCase(c MonitorCase, run MonitorRun, grace time.Duration) MonitorCaseResult {
	type window struct{ start, end time.Time }
	var wins []window
	for _, f := range c.Faults {
		wins = append(wins, window{
			start: run.Start.Add(f.Start),
			end:   run.Start.Add(f.Start + f.Duration + grace),
		})
	}
	accept := map[string]bool{}
	for _, d := range c.Accept {
		accept[d] = true
	}
	inWindow := func(t time.Time) bool {
		for _, w := range wins {
			if !t.Before(w.start) && !t.After(w.end) {
				return true
			}
		}
		return false
	}

	res := MonitorCaseResult{
		Name: c.Name, Faults: len(c.Faults),
		Alerts: len(run.Alerts), Elapsed: run.Elapsed,
		AlertJSONL: run.AlertJSONL,
	}
	byDet := map[string]*DetectorScore{}
	for _, a := range run.Alerts {
		s := byDet[a.Detector]
		if s == nil {
			s = &DetectorScore{Detector: a.Detector}
			byDet[a.Detector] = s
		}
		if accept[a.Detector] && inWindow(a.Time) {
			s.TruePos++
		} else {
			s.FalsePos++
		}
	}
	for _, d := range slices.Sorted(maps.Keys(byDet)) {
		s := byDet[d]
		if n := s.TruePos + s.FalsePos; n > 0 {
			s.Precision = float64(s.TruePos) / float64(n)
		}
		res.Scores = append(res.Scores, *s)
	}

	var latSum time.Duration
	for _, w := range wins {
		var first time.Time
		for _, a := range run.Alerts {
			if a.Detector != c.Primary || a.Time.Before(w.start) || a.Time.After(w.end) {
				continue
			}
			if first.IsZero() || a.Time.Before(first) {
				first = a.Time
			}
		}
		if !first.IsZero() {
			res.Detected++
			latSum += first.Sub(w.start)
		}
	}
	if res.Faults > 0 {
		res.Recall = float64(res.Detected) / float64(res.Faults)
	}
	if res.Detected > 0 {
		res.MeanLatency = latSum / time.Duration(res.Detected)
	}
	return res
}

// MonitorResult is the full S14 sweep.
type MonitorResult struct {
	Config MonitorConfig
	Cases  []MonitorCaseResult
}

// Precision returns a detector's aggregate precision across every case
// (1.0 when it never fired: no false positives).
func (r MonitorResult) Precision(detector string) float64 {
	tp, fp := 0, 0
	for _, c := range r.Cases {
		for _, s := range c.Scores {
			if s.Detector == detector {
				tp += s.TruePos
				fp += s.FalsePos
			}
		}
	}
	if tp+fp == 0 {
		return 1
	}
	return float64(tp) / float64(tp+fp)
}

// Recall returns the aggregate recall over every case whose primary
// detector is the given one.
func (r MonitorResult) Recall(detector string) float64 {
	faults, detected := 0, 0
	for i, c := range MonitorCases() {
		if i >= len(r.Cases) || c.Primary != detector {
			continue
		}
		faults += r.Cases[i].Faults
		detected += r.Cases[i].Detected
	}
	if faults == 0 {
		return 1
	}
	return float64(detected) / float64(faults)
}

// Rows renders the S14 table.
func (r MonitorResult) Rows() []Row {
	rows := []Row{
		{"Ground truth", fmt.Sprintf("%d labeled fault cases, grace %s", len(r.Cases), r.Config.Grace)},
	}
	for _, c := range r.Cases {
		rows = append(rows, Row{
			Label: c.Name,
			Value: fmt.Sprintf("recall %d/%d  latency %-8s alerts %d  %s",
				c.Detected, c.Faults, durSeconds(c.MeanLatency), c.Alerts, durSeconds(c.Elapsed)),
		})
		for _, s := range c.Scores {
			rows = append(rows, Row{
				Label: "  " + s.Detector,
				Value: fmt.Sprintf("precision %.2f (%d TP / %d FP)", s.Precision, s.TruePos, s.FalsePos),
			})
		}
	}
	for _, d := range []string{monitor.DetectorStall, monitor.DetectorCollapse} {
		rows = append(rows, Row{
			Label: "overall " + d,
			Value: fmt.Sprintf("precision %.2f  recall %.2f", r.Precision(d), r.Recall(d)),
		})
	}
	return rows
}

// RunMonitor executes the S14 detector ground-truth sweep.
func RunMonitor(cfg MonitorConfig) (MonitorResult, error) {
	if cfg.Grace <= 0 {
		cfg.Grace = 10 * time.Second
	}
	res := MonitorResult{Config: cfg}
	for i, c := range MonitorCases() {
		run, err := RunMonitorCase(c, cfg.Seed*100+int64(i), cfg.Grace, true)
		if err != nil {
			return res, fmt.Errorf("case %s: %w", c.Name, err)
		}
		res.Cases = append(res.Cases, scoreCase(c, run, cfg.Grace))
	}
	return res, nil
}
