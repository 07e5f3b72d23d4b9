package experiments

import (
	"runtime"
	"testing"

	"esgrid/internal/monitor"
	"esgrid/internal/rm"
)

// TestMonitorGroundTruth runs the full S14 sweep and gates the two
// detectors the issue pins: stall and collapse must reach precision
// ≥ 0.9 and recall ≥ 0.8 against the labeled fault windows.
func TestMonitorGroundTruth(t *testing.T) {
	res, err := RunMonitor(DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != len(MonitorCases()) {
		t.Fatalf("ran %d cases, want %d", len(res.Cases), len(MonitorCases()))
	}
	for _, r := range res.Rows() {
		t.Logf("%-28s %s", r.Label, r.Value)
	}
	kinds := 0
	for _, c := range res.Cases {
		if c.Detected > 0 {
			kinds++
		}
		if c.Recall < 0.5 {
			t.Errorf("case %s: recall %.2f (%d/%d faults)", c.Name, c.Recall, c.Detected, c.Faults)
		}
	}
	if kinds < 3 {
		t.Errorf("only %d fault kinds detected, want ≥ 3", kinds)
	}
	for _, d := range []string{monitor.DetectorStall, monitor.DetectorCollapse} {
		if p := res.Precision(d); p < 0.9 {
			t.Errorf("%s precision %.2f < 0.9", d, p)
		}
		if r := res.Recall(d); r < 0.8 {
			t.Errorf("%s recall %.2f < 0.8", d, r)
		}
	}
}

// TestMonitorPureObserver: attaching the monitor must not perturb the
// system it watches — the full netlogger stream and the transfer
// outcomes are byte-identical with and without it.
func TestMonitorPureObserver(t *testing.T) {
	var runs [2]MonitorRun
	var fs [2]fingerprint
	for i, monitored := range []bool{true, false} {
		var err error
		if fs[i], err = capture(func() (any, error) {
			r, err := RunMonitorCase(MonitorCases()[0], 78, DefaultMonitorConfig().Grace, monitored)
			runs[i] = r
			return r.Statuses, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	same(t, "monitor-pure-observer", runtime.GOMAXPROCS(0), fs[0], fs[1], false)
	with, without := runs[0], runs[1]
	if without.AlertJSONL != "" {
		t.Fatal("bare run produced alerts")
	}
	// The monitored run published health into MDS.
	if len(with.Healths) == 0 {
		t.Fatal("monitored run published no host health")
	}
	for _, st := range with.Statuses {
		if st.State != rm.StateDone {
			t.Fatalf("file %s not done: %+v", st.Name, st)
		}
	}
}
