package monitor

import (
	"strings"
	"testing"
	"time"

	"esgrid/internal/esgrpc"
	"esgrid/internal/ldapd"
	"esgrid/internal/mds"
	"esgrid/internal/netlogger"
	"esgrid/internal/simnet"
	"esgrid/internal/vtime"
)

// ev builds a synthetic event at Epoch+at.
func ev(at time.Duration, host, name string, kv ...string) netlogger.Event {
	e := netlogger.Event{Time: vtime.Epoch.Add(at), Host: host, Name: name}
	if len(kv) > 0 {
		e.Fields = map[string]string{}
		for i := 0; i+1 < len(kv); i += 2 {
			e.Fields[kv[i]] = kv[i+1]
		}
	}
	return e
}

func alertsOf(m *Monitor, detector string) []Alert {
	var out []Alert
	for _, a := range m.Alerts() {
		if a.Detector == detector {
			out = append(out, a)
		}
	}
	return out
}

func TestStallDetectorEpisodes(t *testing.T) {
	m := New(Config{})
	m.Observe(ev(500*time.Millisecond, "anl", "rm.attempt.start",
		"file", "a.nc", "replica", "ncar", "n", "1"))
	m.Observe(ev(1500*time.Millisecond, "anl", "rm.progress",
		"file", "a.nc", "replica", "ncar", "received", "1000000", "ratebps", "8000000"))
	m.Observe(ev(2500*time.Millisecond, "anl", "rm.progress",
		"file", "a.nc", "replica", "ncar", "received", "2000000", "ratebps", "8000000"))
	// Silence: no byte progress after t=2.5s. Stall threshold 3s → the
	// tick at t=6s is the first with idle ≥ 3s.
	m.AdvanceTo(vtime.Epoch.Add(7 * time.Second))
	as := alertsOf(m, DetectorStall)
	if len(as) != 1 {
		t.Fatalf("stall alerts = %d, want 1", len(as))
	}
	if as[0].Host != "ncar" || as[0].Subject != "a.nc" {
		t.Fatalf("alert = %+v", as[0])
	}
	if want := vtime.Epoch.Add(6 * time.Second); !as[0].Time.Equal(want) {
		t.Fatalf("alert time = %v, want %v", as[0].Time, want)
	}
	// Progress resumes → re-arms; a second silence is a second episode.
	m.Observe(ev(7500*time.Millisecond, "anl", "rm.progress",
		"file", "a.nc", "replica", "ncar", "received", "3000000", "ratebps", "8000000"))
	m.AdvanceTo(vtime.Epoch.Add(12 * time.Second))
	if got := len(alertsOf(m, DetectorStall)); got != 2 {
		t.Fatalf("after resume+silence: stall alerts = %d, want 2", got)
	}
	// A done transfer never stalls.
	m.Observe(ev(12100*time.Millisecond, "anl", "rm.file.end", "file", "a.nc"))
	m.AdvanceTo(vtime.Epoch.Add(30 * time.Second))
	if got := len(alertsOf(m, DetectorStall)); got != 2 {
		t.Fatalf("after file.end: stall alerts = %d, want 2", got)
	}
}

func TestStallDetectorStagingAllowance(t *testing.T) {
	m := New(Config{})
	m.Observe(ev(time.Second, "anl", "rm.attempt.start",
		"file", "b.nc", "replica", "lbnl", "n", "1"))
	m.Observe(ev(1100*time.Millisecond, "anl", "rm.stage.start",
		"file", "b.nc", "host", "lbnl"))
	// 4s of staging — beyond the 3s transfer-stall threshold but inside
	// the 8s staging allowance: no alert.
	m.AdvanceTo(vtime.Epoch.Add(5 * time.Second))
	if got := len(alertsOf(m, DetectorStall)); got != 0 {
		t.Fatalf("normal staging alarmed: %d", got)
	}
	// Staging drags past 8s → stall, charged to the staging host.
	m.AdvanceTo(vtime.Epoch.Add(11 * time.Second))
	as := alertsOf(m, DetectorStall)
	if len(as) != 1 || as[0].Host != "lbnl" {
		t.Fatalf("staging stall = %+v", as)
	}
	if !strings.Contains(as[0].Detail, "staging") {
		t.Fatalf("detail = %q", as[0].Detail)
	}
	// stage.end counts as progress: no follow-on transfer-stall until
	// another 3 quiet seconds pass.
	m.Observe(ev(11500*time.Millisecond, "anl", "rm.stage.end",
		"file", "b.nc", "host", "lbnl"))
	m.AdvanceTo(vtime.Epoch.Add(13 * time.Second))
	if got := len(alertsOf(m, DetectorStall)); got != 1 {
		t.Fatalf("stall after stage.end too early: %d", got)
	}
}

func TestCollapseDetector(t *testing.T) {
	info, err := mds.New(ldapd.NewDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := info.PublishForecast(mds.NetForecast{From: "ncar", To: "anl", BandwidthBps: 100e6}); err != nil {
		t.Fatal(err)
	}
	m := New(Config{Info: info})
	low := func(at time.Duration, recv string) netlogger.Event {
		return ev(at, "anl", "rm.progress",
			"file", "c.nc", "replica", "ncar", "received", recv, "ratebps", "10000000")
	}
	m.Observe(ev(100*time.Millisecond, "anl", "rm.attempt.start",
		"file", "c.nc", "replica", "ncar", "n", "1"))
	m.Observe(low(1*time.Second, "1"))
	m.Observe(low(2*time.Second, "2"))
	if got := len(alertsOf(m, DetectorCollapse)); got != 0 {
		t.Fatalf("alerted before streak complete: %d", got)
	}
	m.Observe(low(3*time.Second, "3"))
	as := alertsOf(m, DetectorCollapse)
	if len(as) != 1 || as[0].Host != "ncar" || as[0].Subject != "c.nc" {
		t.Fatalf("collapse = %+v", as)
	}
	// Still collapsed: one alert per episode.
	m.Observe(low(4*time.Second, "4"))
	if got := len(alertsOf(m, DetectorCollapse)); got != 1 {
		t.Fatalf("episode re-alerted: %d", got)
	}
	// Recovery resets the streak; a fresh collapse is a new episode.
	m.Observe(ev(5*time.Second, "anl", "rm.progress",
		"file", "c.nc", "replica", "ncar", "received", "50", "ratebps", "90000000"))
	m.Observe(low(6*time.Second, "51"))
	m.Observe(low(7*time.Second, "52"))
	m.Observe(low(8*time.Second, "53"))
	if got := len(alertsOf(m, DetectorCollapse)); got != 2 {
		t.Fatalf("second episode: %d alerts, want 2", got)
	}
	// Paths without a forecast never alarm.
	m.Observe(ev(9*time.Second, "anl", "rm.progress",
		"file", "d.nc", "replica", "mystery", "received", "1", "ratebps", "1"))
	if got := len(alertsOf(m, DetectorCollapse)); got != 2 {
		t.Fatalf("forecastless path alarmed: %d", got)
	}
}

func TestRetryStormDetector(t *testing.T) {
	m := New(Config{})
	retry := func(at time.Duration, n string) netlogger.Event {
		return ev(at, "anl", "rm.attempt.start",
			"file", "e.nc", "replica", "ncar", "n", n)
	}
	m.Observe(retry(1*time.Second, "1")) // first attempt: not a retry
	m.Observe(retry(2*time.Second, "2"))
	m.Observe(retry(3*time.Second, "3"))
	if got := len(alertsOf(m, DetectorRetryStorm)); got != 0 {
		t.Fatalf("stormed below threshold: %d", got)
	}
	m.Observe(retry(4*time.Second, "4"))
	as := alertsOf(m, DetectorRetryStorm)
	if len(as) != 1 || as[0].Host != "ncar" {
		t.Fatalf("storm = %+v", as)
	}
	// Further retries inside the window are suppressed.
	m.Observe(retry(5*time.Second, "5"))
	m.Observe(retry(6*time.Second, "6"))
	if got := len(alertsOf(m, DetectorRetryStorm)); got != 1 {
		t.Fatalf("suppression failed: %d", got)
	}
	// Well past the window, a new burst is a new storm.
	m.Observe(retry(40*time.Second, "7"))
	m.Observe(retry(41*time.Second, "8"))
	m.Observe(retry(42*time.Second, "9"))
	if got := len(alertsOf(m, DetectorRetryStorm)); got != 2 {
		t.Fatalf("second storm: %d alerts, want 2", got)
	}
}

func TestTeardownGapDetector(t *testing.T) {
	m := New(Config{})
	at := time.Duration(0)
	pair := func(busy, gap time.Duration) {
		m.Observe(ev(at, "ncar", "gridftp.retr.start"))
		at += busy
		m.Observe(ev(at, "ncar", "gridftp.retr.end"))
		at += gap
	}
	// Four healthy retrievals with ~0.5s gaps build the baseline.
	for i := 0; i < 4; i++ {
		pair(2*time.Second, 500*time.Millisecond)
	}
	if got := len(alertsOf(m, DetectorTeardownGap)); got != 0 {
		t.Fatalf("baseline alarmed: %d", got)
	}
	// A 5s gap (10× baseline, > 1s floor) regresses.
	at += 4500 * time.Millisecond // already 0.5s after last end
	m.Observe(ev(at, "ncar", "gridftp.retr.start"))
	as := alertsOf(m, DetectorTeardownGap)
	if len(as) != 1 || as[0].Host != "ncar" {
		t.Fatalf("gap regression = %+v", as)
	}
}

func TestSensorDeadDetector(t *testing.T) {
	m := New(Config{})
	probeErr := func(at time.Duration, n string) netlogger.Event {
		return ev(at, "anl", "nws.probe.error",
			"from", "ncar", "to", "anl", "err", "dns: outage", "consecutive", n)
	}
	m.Observe(probeErr(1*time.Second, "1"))
	m.Observe(probeErr(2*time.Second, "2"))
	if got := len(alertsOf(m, DetectorSensorDead)); got != 0 {
		t.Fatalf("dead before threshold: %d", got)
	}
	m.Observe(probeErr(3*time.Second, "3"))
	as := alertsOf(m, DetectorSensorDead)
	if len(as) != 1 || as[0].Subject != "ncar->anl" || as[0].Host != "ncar" {
		t.Fatalf("sensor-dead = %+v", as)
	}
	// The counter keeps climbing during the outage; only the exact
	// threshold crossing alerts.
	m.Observe(probeErr(4*time.Second, "4"))
	if got := len(alertsOf(m, DetectorSensorDead)); got != 1 {
		t.Fatalf("re-alerted during outage: %d", got)
	}
}

func TestHealthStatusDerivationAndDecay(t *testing.T) {
	m := New(Config{})
	m.Observe(ev(500*time.Millisecond, "anl", "rm.attempt.start",
		"file", "a.nc", "replica", "ncar", "n", "1"))
	m.AdvanceTo(vtime.Epoch.Add(5 * time.Second)) // stall at t=3.5+... → down
	// The records a live tick at the given instant would publish.
	health := func(now time.Time) []mds.HostHealth {
		m.mu.Lock()
		defer m.mu.Unlock()
		hh, _ := m.healthLocked(now)
		return hh
	}
	hh := health(vtime.Epoch.Add(5 * time.Second))
	var ncar *mds.HostHealth
	for i := range hh {
		if hh[i].Host == "ncar" {
			ncar = &hh[i]
		}
	}
	if ncar == nil || ncar.Status != mds.HealthDown {
		t.Fatalf("ncar health = %+v, want down", ncar)
	}
	if ncar.Alerts != 1 {
		t.Fatalf("alerts charged = %d", ncar.Alerts)
	}
	// Past the decay window the verdict relaxes to ok.
	hh = health(vtime.Epoch.Add(60 * time.Second))
	for _, h := range hh {
		if h.Host == "ncar" && h.Status != mds.HealthOK {
			t.Fatalf("after decay: %+v", h)
		}
	}
}

func TestStageLatencyDigests(t *testing.T) {
	m := New(Config{})
	m.Observe(ev(1*time.Second, "anl", "rm.stage.start",
		"trid", "1.4", "stage", "stage-from-tape", "file", "a.nc", "host", "lbnl"))
	m.Observe(ev(4500*time.Millisecond, "anl", "rm.stage.end",
		"trid", "1.4", "stage", "stage-from-tape", "file", "a.nc", "host", "lbnl"))
	m.Observe(ev(5*time.Second, "anl", "rm.backoff.start",
		"trid", "1.9", "stage", "retry", "file", "a.nc"))
	m.Observe(ev(5500*time.Millisecond, "anl", "rm.backoff.end",
		"trid", "1.9", "stage", "retry", "file", "a.nc"))
	s := m.Snapshot(m.Now())
	if len(s.Stages) != 2 {
		t.Fatalf("stages = %+v", s.Stages)
	}
	byName := map[string]StageStat{}
	for _, st := range s.Stages {
		byName[st.Stage] = st
	}
	tape := byName["stage-from-tape"]
	if tape.N != 1 || tape.Max != 3.5 {
		t.Fatalf("tape digest = %+v", tape)
	}
	if byName["retry"].Max != 0.5 {
		t.Fatalf("retry digest = %+v", byName["retry"])
	}
}

func TestSnapshotAndDashboard(t *testing.T) {
	m := New(Config{})
	m.Observe(ev(500*time.Millisecond, "anl", "rm.file.start", "file", "a.nc", "trid", "1.1"))
	m.Observe(ev(600*time.Millisecond, "anl", "rm.attempt.start",
		"file", "a.nc", "replica", "ncar", "n", "1"))
	m.Observe(ev(1500*time.Millisecond, "anl", "rm.progress",
		"file", "a.nc", "replica", "ncar", "received", "9000000", "ratebps", "72000000"))
	m.AdvanceTo(vtime.Epoch.Add(2 * time.Second))
	s := m.Snapshot(vtime.Epoch.Add(2 * time.Second))
	if len(s.Transfers) != 1 || s.Transfers[0].File != "a.nc" ||
		s.Transfers[0].State != "active" || s.Transfers[0].Received != 9000000 {
		t.Fatalf("transfers = %+v", s.Transfers)
	}
	found := false
	for _, h := range s.Hosts {
		if h.Host == "ncar" && h.GoodputBps == 72000000 && h.Active == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("hosts = %+v", s.Hosts)
	}
	out := RenderDashboard(s, 100)
	for _, want := range []string{"SITES", "TRANSFERS", "ALERTS", "a.nc", "ncar"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	// Empty snapshot renders too.
	empty := RenderDashboard(Snapshot{}, 0)
	if !strings.Contains(empty, "(none observed)") || !strings.Contains(empty, "(none)") {
		t.Fatalf("empty dashboard:\n%s", empty)
	}
}

func TestAlertJSONLDeterminism(t *testing.T) {
	feed := func() *Monitor {
		m := New(Config{})
		m.Observe(ev(500*time.Millisecond, "anl", "rm.attempt.start",
			"file", "a.nc", "replica", "ncar", "n", "1"))
		for i := 2; i <= 5; i++ {
			m.Observe(ev(time.Duration(i)*time.Second, "anl", "rm.attempt.start",
				"file", "a.nc", "replica", "ncar", "n", string(rune('0'+i))))
		}
		m.AdvanceTo(vtime.Epoch.Add(20 * time.Second))
		return m
	}
	a, b := feed(), feed()
	ja, jb := a.AlertJSONL(), b.AlertJSONL()
	if ja != jb {
		t.Fatalf("equal feeds diverged:\n%s\nvs\n%s", ja, jb)
	}
	if len(a.Alerts()) == 0 {
		t.Fatal("no alerts raised")
	}
	if !strings.Contains(ja, `"detector"`) || !strings.Contains(ja, `"ts"`) {
		t.Fatalf("JSONL shape: %s", ja)
	}
	// AlertsSince pagination.
	n := len(a.Alerts())
	if got := a.AlertsSince(n); got != nil {
		t.Fatalf("AlertsSince(end) = %v", got)
	}
	if got := a.AlertsSince(-1); len(got) != n {
		t.Fatalf("AlertsSince(-1) = %d, want %d", len(got), n)
	}
}

// TestLiveTickerPublishesHealth runs the monitor in live mode on the
// virtual clock: events stream in via Subscribe while the tick loop
// publishes HostHealth/PathHealth into MDS.
func TestLiveTickerPublishesHealth(t *testing.T) {
	clk := vtime.NewSim(21)
	clk.Run(func() {
		dir := ldapd.NewDir()
		info, err := mds.New(dir)
		if err != nil {
			t.Fatal(err)
		}
		log := netlogger.NewLog(clk)
		reg := netlogger.NewRegistry(clk)
		reg.Gauge("simnet.flows.active").Set(2)
		m := New(Config{Clock: clk, Info: info, Metrics: reg})
		m.Attach(log)
		m.Start()
		defer m.Stop()

		log.Emit("anl", "rm.attempt.start", "file", "a.nc", "replica", "ncar", "n", "1")
		clk.Sleep(1500 * time.Millisecond)
		log.Emit("anl", "rm.progress",
			"file", "a.nc", "replica", "ncar", "received", "5000000", "ratebps", "40000000")
		clk.Sleep(2 * time.Second)

		hh, err := info.HostHealthFor("ncar")
		if err != nil {
			t.Fatalf("no published host health: %v", err)
		}
		if hh.Status != mds.HealthOK {
			t.Fatalf("healthy host published as %q", hh.Status)
		}
		ph, err := info.PathHealthFor("ncar", "anl")
		if err != nil {
			t.Fatalf("no published path health: %v", err)
		}
		if ph.ObservedBps != 40000000 {
			t.Fatalf("path observed = %v", ph.ObservedBps)
		}
		// Starve the transfer: the watchdog flips the published verdict.
		clk.Sleep(5 * time.Second)
		hh, err = info.HostHealthFor("ncar")
		if err != nil {
			t.Fatal(err)
		}
		if hh.Status != mds.HealthDown {
			t.Fatalf("stalled host published as %q", hh.Status)
		}
		s := m.Snapshot(m.Now())
		if s.ActiveFlows != 2 {
			t.Fatalf("flows gauge sample = %v", s.ActiveFlows)
		}
	})
}

// TestRPCRoundTrip exercises mon.snapshot and mon.alerts over esgrpc.
func TestRPCRoundTrip(t *testing.T) {
	clk := vtime.NewSim(22)
	clk.Run(func() {
		n := simnet.New(clk)
		n.AddHost("anl", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddHost("desk", simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddLink("anl", "desk", simnet.LinkConfig{CapacityBps: 100e6, Delay: 2 * time.Millisecond})

		m := New(Config{Clock: clk})
		m.Observe(ev(500*time.Millisecond, "anl", "rm.attempt.start",
			"file", "a.nc", "replica", "ncar", "n", "1"))
		m.AdvanceTo(vtime.Epoch.Add(5 * time.Second)) // raises a stall

		srv := esgrpc.NewServer(clk, nil)
		m.RegisterRPC(srv)
		l, err := n.Host("anl").Listen(":9100")
		if err != nil {
			t.Fatal(err)
		}
		clk.Go(func() { srv.Serve(l) })

		cli, err := esgrpc.Dial(clk, n.Host("desk"), "anl:9100", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		var snap Snapshot
		if err := cli.Call("mon.snapshot", nil, &snap); err != nil {
			t.Fatal(err)
		}
		if len(snap.Transfers) != 1 || snap.Transfers[0].File != "a.nc" {
			t.Fatalf("snapshot transfers = %+v", snap.Transfers)
		}
		var reply AlertsReply
		if err := cli.Call("mon.alerts", AlertsRequest{Since: 0}, &reply); err != nil {
			t.Fatal(err)
		}
		if len(reply.Alerts) != 1 || reply.Alerts[0].Detector != DetectorStall || reply.Next != 1 {
			t.Fatalf("alerts reply = %+v", reply)
		}
		// Incremental poll from Next returns nothing new.
		var more AlertsReply
		if err := cli.Call("mon.alerts", AlertsRequest{Since: reply.Next}, &more); err != nil {
			t.Fatal(err)
		}
		if len(more.Alerts) != 0 || more.Next != 1 {
			t.Fatalf("incremental reply = %+v", more)
		}
	})
}
