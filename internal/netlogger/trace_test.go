package netlogger

import (
	"strings"
	"testing"
	"time"

	"esgrid/internal/vtime"
)

func TestEmitOddKVRecordsTrailingKey(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		l := NewLog(clk)
		l.Emit("h", "ev", "a", "1", "dangling")
		evs := l.Events()
		if len(evs) != 1 {
			t.Fatalf("got %d events", len(evs))
		}
		if evs[0].Fields["a"] != "1" {
			t.Errorf("a=%q, want 1", evs[0].Fields["a"])
		}
		v, ok := evs[0].Fields["dangling"]
		if !ok || v != "" {
			t.Errorf("trailing key: got (%q,%v), want (\"\",true)", v, ok)
		}
	})
}

func TestRateSeriesEmitsPartialBucket(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		var bytes float64
		m := NewMeter(clk, 100*time.Millisecond, func() float64 { return bytes })
		// 2.5 s at a steady 1000 units/s with 1 s buckets: two full
		// buckets plus a 0.5 s partial that must not be dropped. The
		// increment precedes the sleep because the meter samples at its
		// timer's event position, ahead of goroutines woken at the same
		// instant.
		for i := 0; i < 25; i++ {
			bytes += 100
			clk.Sleep(100 * time.Millisecond)
		}
		m.Stop()
		s := m.RateSeries(time.Second)
		if len(s) != 3 {
			t.Fatalf("got %d buckets, want 3 (two full + partial): %v", len(s), s)
		}
		for i, p := range s {
			if p.V < 999 || p.V > 1001 {
				t.Errorf("bucket %d rate %.1f, want ~1000", i, p.V)
			}
		}
		// The partial bucket's timestamp is the last sample instant.
		if got := s[2].T.Sub(s[1].T); got != 500*time.Millisecond {
			t.Errorf("partial bucket span %v, want 500ms", got)
		}
	})
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.StartTrace("x", "h")
	if sp != nil {
		t.Fatal("nil tracer must return nil span")
	}
	// All of these must be no-ops, not panics.
	c := sp.Child(StageData, "y")
	c.Annotate("k", "v")
	c.Finish()
	sp.Finish()
	if got := sp.Context(); got != "" {
		t.Errorf("nil span Context = %q, want \"\"", got)
	}
	if tr.Snapshot() != nil {
		t.Error("nil tracer snapshot should be nil")
	}
}

func TestTracerSpanTreeAndEvents(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		log := NewLog(clk)
		tr := NewTracer(clk, log)
		root := tr.StartTrace("rm.request", "desk", "user", "alice")
		clk.Sleep(time.Second)
		ch := root.Child(StageData, "xfer", "file", "a.nc")
		clk.Sleep(2 * time.Second)
		ch.Annotate("bytes", "100")
		ch.Finish()
		clk.Sleep(time.Second)
		root.Finish()

		recs := tr.Snapshot()
		if len(recs) != 2 {
			t.Fatalf("got %d spans, want 2", len(recs))
		}
		if recs[0].Parent != 0 || recs[1].Parent != recs[0].ID {
			t.Errorf("bad parentage: %+v", recs)
		}
		if recs[1].Dur() != 2*time.Second {
			t.Errorf("child duration %v, want 2s", recs[1].Dur())
		}
		if got := strings.Join(append(recs[0].Attrs, recs[1].Attrs...), " "); got != "user alice file a.nc bytes 100" {
			t.Errorf("attrs lost: %+v", recs)
		}
		if got := recs[1].Stage; got != StageData {
			t.Errorf("stage %q, want %q", got, StageData)
		}
		// Start/end events mirrored into the log, tagged with trid.
		starts := log.Named("xfer.start")
		ends := log.Named("xfer.end")
		if len(starts) != 1 || len(ends) != 1 {
			t.Fatalf("got %d starts, %d ends", len(starts), len(ends))
		}
		if starts[0].Fields["trid"] == "" || starts[0].Fields["stage"] != StageData {
			t.Errorf("start event fields: %v", starts[0].Fields)
		}
	})
}

func TestRegistryInstruments(t *testing.T) {
	clk := vtime.NewSim(1)
	r := NewRegistry(clk)
	r.Counter("rm.retries").Inc()
	r.Counter("rm.retries").Add(2)
	if got := r.Counter("rm.retries").Value(); got != 3 {
		t.Errorf("counter = %g, want 3", got)
	}
	g := r.Gauge("simnet.flows.active")
	g.Add(1)
	g.Add(1)
	g.Add(-1)
	if g.Value() != 1 || g.Max() != 2 {
		t.Errorf("gauge value=%g max=%g, want 1/2", g.Value(), g.Max())
	}
	h := r.LogHist("gridftp.control.rtts")
	for _, v := range []float64{0.005, 0.05, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("hist count %d, want 4", h.Count())
	}
	if got := h.Tail().P50; got < 0.05 || got > 0.052 {
		t.Errorf("p50 bucket bound %g, want ~0.05", got)
	}
	if got := h.Snapshot().Quantile(1); got != 5 {
		t.Errorf("p100 %g, want observed max 5", got)
	}
	out := r.Render()
	for _, want := range []string{"rm.retries", "simnet.flows.active", "gridftp.control.rtts", "counter", "gauge", "loghist"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	// Nil registry hands out no-op instruments.
	var nr *Registry
	nr.Counter("x").Inc()
	nr.Gauge("y").Set(1)
	nr.LogHist("z").Observe(1)
	if nr.Render() != "(no metrics)\n" && nr.Render() != "" {
		// nil registry renders the empty placeholder
		t.Errorf("nil registry render = %q", nr.Render())
	}
}

func TestAnalyzeTraceAttributionAndGaps(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		tr := NewTracer(clk, nil)
		root := tr.StartTrace("rm.request", "desk")
		// File 1: 1 s control wrapping 3 s data (deeper span wins).
		s1 := root.Child(StageControl, "session1")
		clk.Sleep(time.Second)
		d1 := s1.Child(StageData, "get1")
		clk.Sleep(3 * time.Second)
		d1.Finish()
		td := s1.Child(StageTeardown, "teardown1")
		clk.Sleep(800 * time.Millisecond) // the Figure 8 signature
		td.Finish()
		s1.Finish()
		// File 2 data span after the teardown gap.
		s2 := root.Child(StageControl, "session2")
		d2 := s2.Child(StageData, "get2")
		clk.Sleep(2 * time.Second)
		d2.Finish()
		s2.Finish()
		root.Finish()

		a := AnalyzeTrace(tr.Snapshot(), root.TraceID())
		if a.Wall != 6800*time.Millisecond {
			t.Fatalf("wall %v, want 6.8s", a.Wall)
		}
		want := map[string]time.Duration{
			StageData:     5 * time.Second,
			StageControl:  time.Second,
			StageTeardown: 800 * time.Millisecond,
		}
		got := map[string]time.Duration{}
		for _, st := range a.Stages {
			got[st.Stage] = st.Dur
		}
		for stage, d := range want {
			if got[stage] != d {
				t.Errorf("stage %s = %v, want %v", stage, got[stage], d)
			}
		}
		if a.Coverage < 0.999 {
			t.Errorf("coverage %.4f, want ~1", a.Coverage)
		}
		if a.Attributed+a.Other != a.Wall {
			t.Errorf("attributed %v + other %v != wall %v", a.Attributed, a.Other, a.Wall)
		}
		// The inter-file gap is the 0.8 s teardown pause.
		if len(a.Gaps) != 1 || a.Gaps[0].Dur != 800*time.Millisecond {
			t.Fatalf("gaps = %+v, want one 800ms gap", a.Gaps)
		}
		if a.MeanGap() != 800*time.Millisecond {
			t.Errorf("mean gap %v", a.MeanGap())
		}

		gantt := a.RenderGantt(60)
		for _, want := range []string{"session1 [control]", "get1 [data]", "teardown1 [teardown]", "#"} {
			if !strings.Contains(gantt, want) {
				t.Errorf("gantt missing %q:\n%s", want, gantt)
			}
		}
		table := a.RenderStageTable()
		if !strings.Contains(table, StageData) || !strings.Contains(table, "total") {
			t.Errorf("stage table:\n%s", table)
		}
	})
}

func TestULMAndJSONLExport(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		l := NewLog(clk)
		l.Emit("dal01", "transfer.start", "file", "a b.nc", "size", "1024")
		clk.Sleep(1500 * time.Millisecond)
		l.Emit("anl02", "transfer.end", "file", "a b.nc")
		ulm := l.ULM()
		lines := strings.Split(strings.TrimRight(ulm, "\n"), "\n")
		if len(lines) != 2 {
			t.Fatalf("ulm lines = %d: %q", len(lines), ulm)
		}
		if !strings.HasPrefix(lines[0], "DATE=20001106") {
			t.Errorf("ulm DATE prefix: %q", lines[0])
		}
		if !strings.Contains(lines[0], "NL.EVNT=transfer.start") ||
			!strings.Contains(lines[0], `file="a b.nc"`) ||
			!strings.Contains(lines[0], "HOST=dal01") {
			t.Errorf("ulm line: %q", lines[0])
		}
		// Fields in sorted key order: file before size.
		if strings.Index(lines[0], "file=") > strings.Index(lines[0], "size=") {
			t.Errorf("fields not sorted: %q", lines[0])
		}
		jl := l.JSONL()
		if !strings.Contains(jl, `"event":"transfer.end"`) || !strings.Contains(jl, `"host":"anl02"`) {
			t.Errorf("jsonl: %q", jl)
		}
	})
}
