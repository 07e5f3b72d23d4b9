package experiments

import (
	"strings"
	"testing"
)

func TestLifelineCoverageAndGaps(t *testing.T) {
	cfg := DefaultLifelineConfig()
	cfg.Files = 3
	cfg.FileMB = 16
	res, err := RunLifeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage < 0.99 {
		t.Errorf("stage attribution coverage %.4f, want >= 0.99\n%s", res.Coverage, res.Stages)
	}
	if got := len(res.Analysis.Gaps); got != cfg.Files-1 {
		t.Errorf("inter-file gaps = %d, want %d", got, cfg.Files-1)
	}
	for i, g := range res.Analysis.Gaps {
		if g.Dur <= 0 {
			t.Errorf("gap %d not positive: %v", i, g.Dur)
		}
	}
	if res.MeanGap <= 0 {
		t.Errorf("mean gap %v, want > 0", res.MeanGap)
	}
	for _, want := range []string{"rm.request", "gridftp.session", "[data]", "[teardown]"} {
		if !strings.Contains(res.Gantt, want) {
			t.Errorf("gantt missing %q:\n%s", want, res.Gantt)
		}
	}
	for _, want := range []string{"gridftp.control.rtts", "simnet.flows.active"} {
		if !strings.Contains(res.Metrics, want) {
			t.Errorf("metrics table missing %q:\n%s", want, res.Metrics)
		}
	}
	if res.Events == 0 || res.Spans == 0 {
		t.Errorf("events=%d spans=%d, want both > 0", res.Events, res.Spans)
	}
}
