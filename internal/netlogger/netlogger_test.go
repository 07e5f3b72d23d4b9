package netlogger

import (
	"math"
	"strings"
	"testing"
	"time"

	"esgrid/internal/vtime"
)

func TestLogEmitAndQuery(t *testing.T) {
	clk := vtime.NewSim(1)
	clk.Run(func() {
		l := NewLog(clk)
		l.Emit("dal01", "transfer.start", "file", "a.nc", "size", "1024")
		clk.Sleep(time.Second)
		l.Emit("dal01", "transfer.end", "file", "a.nc")
		evs := l.Events()
		if len(evs) != 2 {
			t.Fatalf("events = %d", len(evs))
		}
		if evs[0].Fields["file"] != "a.nc" || evs[0].Fields["size"] != "1024" {
			t.Fatalf("fields = %v", evs[0].Fields)
		}
		if got := evs[1].Time.Sub(evs[0].Time); got != time.Second {
			t.Fatalf("timestamp delta = %v", got)
		}
		if n := len(l.Named("transfer.end")); n != 1 {
			t.Fatalf("Named = %d", n)
		}
	})
}

func TestLogSubscribe(t *testing.T) {
	clk := vtime.NewSim(9)
	clk.Run(func() {
		l := NewLog(clk)
		l.Emit("dal01", "before.subscribe")
		var got []Event
		l.Subscribe(func(ev Event) { got = append(got, ev) })
		l.Emit("dal01", "a", "k", "1")
		clk.Sleep(time.Second)
		l.Emit("lbl01", "b")
		if len(got) != 2 {
			t.Fatalf("delivered = %d, want 2 (pre-subscribe event excluded)", len(got))
		}
		if got[0].Name != "a" || got[0].Fields["k"] != "1" {
			t.Fatalf("first delivery = %+v", got[0])
		}
		if got[1].Name != "b" || got[1].Host != "lbl01" {
			t.Fatalf("second delivery = %+v", got[1])
		}
		if d := got[1].Time.Sub(got[0].Time); d != time.Second {
			t.Fatalf("timestamp delta = %v", d)
		}
		// Both subscribers see every event, in append order.
		var n int
		l.Subscribe(func(Event) { n++ })
		l.Emit("dal01", "c")
		if len(got) != 3 || n != 1 {
			t.Fatalf("fanout: got=%d n=%d", len(got), n)
		}
	})
}

// ParseJSONL is JSONL's inverse: the decoded events re-encode to the
// same bytes, through an equal-instant tie (emitted against the export's
// tie order), an event with no fields, sub-second instants, and values
// that need escaping.
func TestJSONLRoundTrip(t *testing.T) {
	clk := vtime.NewSim(1)
	l := NewLog(clk)
	const tricky = `say "hi" \ ünïcödé <&> 雪`
	clk.Run(func() {
		l.Emit("sdsc", "tie", "k", "2")
		l.Emit("anl", "tie", "k", "1")
		l.Emit("anl", "bare")
		clk.Sleep(1500 * time.Nanosecond)
		l.Emit("lbnl", "quoted", tricky, tricky, "empty", "")
		clk.Sleep(time.Hour)
		l.Emit("lbnl", "late", "n", "3")
	})
	out := l.JSONL()
	evs, err := ParseJSONL(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	if again := (&Log{events: evs}).JSONL(); again != out {
		t.Fatalf("re-encoding differs:\n--- first ---\n%s--- again ---\n%s", out, again)
	}
	if len(evs) != 5 || evs[0].Fields != nil || evs[1].Host != "anl" || evs[2].Host != "sdsc" ||
		evs[3].Fields[tricky] != tricky || !evs[3].Time.Equal(vtime.Epoch.Add(1500)) {
		t.Fatalf("decoded events: %+v", evs)
	}
	// Blank lines are skipped; a line that is not an event names itself.
	if evs, err := ParseJSONL(strings.NewReader("\n" + out + "\n")); err != nil || len(evs) != 5 {
		t.Fatalf("blank lines: %d events, err %v", len(evs), err)
	}
	for _, bad := range []string{`{"ts":"yesterday","host":"a","event":"e"}`, `{"ts":`} {
		if _, err := ParseJSONL(strings.NewReader(out + bad + "\n")); err == nil || !strings.Contains(err.Error(), "line 6") {
			t.Errorf("ParseJSONL(%q) error = %v, want one naming line 6", bad, err)
		}
	}
}

func TestMeterRates(t *testing.T) {
	clk := vtime.NewSim(2)
	clk.Run(func() {
		// A counter that grows 100 bytes/s for 10s, stalls 10s, then
		// grows 300 bytes/s for 10s.
		start := clk.Now()
		counter := func() float64 {
			s := clk.Now().Sub(start).Seconds()
			switch {
			case s <= 10:
				return 100 * s
			case s <= 20:
				return 1000
			default:
				return 1000 + 300*(s-20)
			}
		}
		m := NewMeter(clk, 100*time.Millisecond, counter)
		clk.Sleep(30 * time.Second)
		m.Stop()
		if got := m.Total(); math.Abs(got-4000) > 50 {
			t.Fatalf("total = %v, want ~4000", got)
		}
		if got := m.AverageRate(); math.Abs(got-4000.0/30) > 5 {
			t.Fatalf("avg = %v, want ~133", got)
		}
		if got := m.PeakRate(time.Second); math.Abs(got-300) > 10 {
			t.Fatalf("peak@1s = %v, want ~300", got)
		}
		if got := m.PeakRate(20 * time.Second); got > 250 || got < 150 {
			t.Fatalf("peak@20s = %v, want between avg and burst", got)
		}
		series := m.RateSeries(time.Second)
		if len(series) < 28 || len(series) > 31 {
			t.Fatalf("series buckets = %d", len(series))
		}
		// The stall must show as near-zero buckets.
		zero := 0
		for _, p := range series {
			if p.V < 1 {
				zero++
			}
		}
		if zero < 8 {
			t.Fatalf("stall not visible: %d zero buckets", zero)
		}
	})
}

func TestMeterStopIdempotent(t *testing.T) {
	clk := vtime.NewSim(3)
	clk.Run(func() {
		m := NewMeter(clk, time.Second, func() float64 { return 0 })
		clk.Sleep(2 * time.Second)
		m.Stop()
		m.Stop()
	})
}

// A meter with no positive interval would sample once and stop; it
// panics instead, as time.NewTicker does.
func TestMeterNonPositiveIntervalPanics(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMeter(%v) did not panic", d)
				}
			}()
			NewMeter(vtime.NewSim(1), d, func() float64 { return 0 })
		}()
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{1, 2, 3, 4, 100})
	if st.N != 5 || st.Min != 1 || st.Max != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Mean != 22 {
		t.Fatalf("mean = %v", st.Mean)
	}
	if st.P50 != 3 {
		t.Fatalf("p50 = %v", st.P50)
	}
	// Floor-index percentile: index int(0.9*4) = 3.
	if st.P90 != 4 {
		t.Fatalf("p90 = %v", st.P90)
	}
	if st.P99 != 4 {
		t.Fatalf("p99 = %v", st.P99)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty stats")
	}
}

func TestSeriesPlot(t *testing.T) {
	t0 := vtime.Epoch
	var s Series
	for i := 0; i < 60; i++ {
		v := 50.0
		if i > 30 {
			v = 100
		}
		s = append(s, Point{T: t0.Add(time.Duration(i) * time.Second), V: v})
	}
	plot := s.Plot("step function", "units", 60, 8)
	if !strings.Contains(plot, "step function") || !strings.Contains(plot, "#") {
		t.Fatalf("plot:\n%s", plot)
	}
	// Right half (higher values) must have taller columns than left half.
	lines := strings.Split(plot, "\n")
	top := lines[1]
	if !strings.Contains(top[40:], "#") || strings.Contains(top[12:30], "#") {
		t.Fatalf("plot shape wrong:\n%s", plot)
	}
	if (Series{}).Plot("empty", "u", 40, 6) == "" {
		t.Fatal("empty plot")
	}
}

func TestValues(t *testing.T) {
	s := Series{{V: 1}, {V: 2}}
	vs := s.Values()
	if len(vs) != 2 || vs[1] != 2 {
		t.Fatalf("values = %v", vs)
	}
}
