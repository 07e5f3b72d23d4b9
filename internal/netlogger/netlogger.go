// Package netlogger reproduces the role NetLogger [Gunter et al. 2000]
// plays in the paper: instrumenting distributed transfers and turning the
// measurements into the bandwidth-versus-time series and summary rows the
// evaluation reports (Table 1's windowed peaks, Figure 8's 14-hour plot).
//
// A Log records timestamped structured events. A Meter samples a
// cumulative byte counter on a fixed virtual-time cadence and answers the
// questions the paper's instrumentation answered: peak rate over any
// 0.1 s window, peak over any 5 s window, sustained average, and total
// bytes moved. Series can be rendered as ASCII charts (the Figure 8
// analog).
package netlogger

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"esgrid/internal/vtime"
)

// Event is one structured log record.
type Event struct {
	Time   time.Time
	Host   string
	Name   string
	Fields map[string]string
}

// Log is an append-only event log, safe for concurrent use.
type Log struct {
	clk vtime.Clock

	mu     sync.Mutex
	events []Event
	subs   []func(Event)
}

// NewLog returns an empty log stamping events with clk.
func NewLog(clk vtime.Clock) *Log { return &Log{clk: clk} }

// Subscribe registers fn to receive every subsequently emitted event.
// Delivery is synchronous, on the emitting goroutine, in exact log-append
// order — the hook an online consumer (the monitor plane) needs to see
// the stream as it happens rather than post-hoc. fn must be fast and must
// not call Emit (the log's lock is held during delivery).
func (l *Log) Subscribe(fn func(Event)) {
	l.mu.Lock()
	l.subs = append(l.subs, fn)
	l.mu.Unlock()
}

// Emit appends an event. kv is alternating key, value pairs; a trailing
// key with no value is recorded with an empty value.
func (l *Log) Emit(host, name string, kv ...string) {
	ev := Event{Time: l.clk.Now(), Host: host, Name: name}
	if len(kv) > 0 {
		ev.Fields = make(map[string]string, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			if i+1 < len(kv) {
				ev.Fields[kv[i]] = kv[i+1]
			} else {
				ev.Fields[kv[i]] = ""
			}
		}
	}
	l.mu.Lock()
	l.events = append(l.events, ev)
	for _, fn := range l.subs {
		fn(ev)
	}
	l.mu.Unlock()
}

// Events returns a snapshot of all recorded events in order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Named returns the recorded events with the given name.
func (l *Log) Named(name string) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, ev := range l.events {
		if ev.Name == name {
			out = append(out, ev)
		}
	}
	return out
}

// Point is one sample of a time series.
type Point struct {
	T time.Time
	V float64
}

// Series is an ordered sequence of samples.
type Series []Point

// Meter periodically samples a cumulative counter (bytes transferred) and
// derives rate statistics from the samples.
type Meter struct {
	clk      *vtime.Sim
	interval time.Duration
	sample   func() float64

	mu      sync.Mutex
	t0      time.Time
	samples []float64 // cumulative counter at t0 + i*interval
	lastAt  time.Time // instant of the most recent sample
	ev      vtime.EventID
	stopped bool
}

// siteMeterSample tags the meter's sampling timer in event provenance.
var siteMeterSample = vtime.RegisterSite("netlogger.meter-sample")

// NewMeter starts sampling fn every interval on clk until Stop.
//
// Samples are taken from a timer callback, not a sleeping goroutine: an
// event callback runs at a fixed position in its instant's event order,
// whereas a woken goroutine's read lands wherever the run queue puts it
// among the goroutines the same instant readied, which moves whenever
// an unrelated goroutine starts or stops waking at that instant. The
// counter value is the same either way, but the *fold point* of rate
// extrapolation is not, and folding a flow's progress in two steps
// instead of one rounds differently in the last float bits. The timer
// keeps each sample at one fixed place in the event order.
//
// It panics if interval <= 0, as time.NewTicker does: such a meter
// would sample once and stop.
func NewMeter(clk *vtime.Sim, interval time.Duration, fn func() float64) *Meter {
	if interval <= 0 {
		panic("netlogger: non-positive interval for NewMeter")
	}
	m := &Meter{clk: clk, interval: interval, sample: fn, t0: clk.Now()}
	m.lastAt = m.t0
	m.samples = append(m.samples, fn())
	m.ev = clk.ScheduleSite(siteMeterSample, interval, m.tick)
	return m
}

func (m *Meter) tick() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.lastAt = m.clk.Now()
	m.samples = append(m.samples, m.sample())
	// RearmFiring reuses the firing event's slot, so steady-state
	// sampling allocates nothing and m.ev stays valid for Stop.
	m.clk.RearmFiring(m.interval)
	m.mu.Unlock()
}

// Stop halts sampling after recording one final sample covering the tail
// since the last tick; if a tick already sampled at this very instant the
// final sample is skipped rather than duplicated.
func (m *Meter) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return
	}
	m.stopped = true
	m.clk.Cancel(m.ev)
	if now := m.clk.Now(); !now.Equal(m.lastAt) {
		m.lastAt = now
		m.samples = append(m.samples, m.sample())
	}
}

func (m *Meter) snapshot() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, len(m.samples))
	copy(out, m.samples)
	return out
}

// Total returns the counter growth over the metered span.
func (m *Meter) Total() float64 {
	s := m.snapshot()
	if len(s) < 2 {
		return 0
	}
	return s[len(s)-1] - s[0]
}

// PeakRate returns the maximum average rate, in counter-units/second,
// observed over any contiguous window of the given duration (rounded to
// whole sampling intervals, minimum one).
func (m *Meter) PeakRate(window time.Duration) float64 {
	s := m.snapshot()
	k := int(window / m.interval)
	if k < 1 {
		k = 1
	}
	if len(s) <= k {
		if len(s) < 2 {
			return 0
		}
		k = len(s) - 1
	}
	span := (time.Duration(k) * m.interval).Seconds()
	var peak float64
	for i := 0; i+k < len(s); i++ {
		if r := (s[i+k] - s[i]) / span; r > peak {
			peak = r
		}
	}
	return peak
}

// AverageRate returns the mean rate over the whole metered span.
func (m *Meter) AverageRate() float64 {
	s := m.snapshot()
	if len(s) < 2 {
		return 0
	}
	span := (time.Duration(len(s)-1) * m.interval).Seconds()
	if span == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / span
}

// RateSeries returns the per-bucket average rate series, with buckets of
// the given duration (whole multiples of the sampling interval). A
// trailing partial bucket is emitted with its rate scaled to the span it
// actually covers, so the tail of the metered window is not dropped.
func (m *Meter) RateSeries(bucket time.Duration) Series {
	s := m.snapshot()
	k := int(bucket / m.interval)
	if k < 1 {
		k = 1
	}
	span := (time.Duration(k) * m.interval).Seconds()
	var out Series
	i := 0
	for ; i+k < len(s); i += k {
		out = append(out, Point{
			T: m.t0.Add(time.Duration(i+k) * m.interval),
			V: (s[i+k] - s[i]) / span,
		})
	}
	if rem := len(s) - 1 - i; rem > 0 {
		// Partial bucket: rem < k sampling intervals remain.
		partial := (time.Duration(rem) * m.interval).Seconds()
		out = append(out, Point{
			T: m.t0.Add(time.Duration(i+rem) * m.interval),
			V: (s[len(s)-1] - s[i]) / partial,
		})
	}
	return out
}

// Quantile returns the q-th quantile of sorted, an ascending slice: the
// value at zero-based rank int(q·(n−1)), the rank HistSnapshot.Quantile
// uses. It returns 0 for an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// Values extracts the sample values.
func (s Series) Values() []float64 {
	out := make([]float64, len(s))
	for i, p := range s {
		out[i] = p.V
	}
	return out
}

// Plot renders the series as an ASCII chart of the given size, in the
// spirit of Figure 8's bandwidth-over-time graph.
func (s Series) Plot(title, yunit string, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(s) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	// Downsample (average) into width columns.
	cols := make([]float64, width)
	counts := make([]int, width)
	t0, t1 := s[0].T, s[len(s)-1].T
	span := t1.Sub(t0).Seconds()
	if span <= 0 {
		span = 1
	}
	var ymax float64
	for _, p := range s {
		c := int(p.T.Sub(t0).Seconds() / span * float64(width-1))
		cols[c] += p.V
		counts[c]++
		if p.V > ymax {
			ymax = p.V
		}
	}
	for i := range cols {
		if counts[i] > 0 {
			cols[i] /= float64(counts[i])
		}
	}
	if ymax == 0 {
		ymax = 1
	}
	for row := height - 1; row >= 0; row-- {
		lo := ymax * float64(row) / float64(height)
		if row == height-1 {
			fmt.Fprintf(&b, "%10.1f |", ymax)
		} else if row == 0 {
			fmt.Fprintf(&b, "%10.1f |", 0.0)
		} else {
			b.WriteString(strings.Repeat(" ", 10) + " |")
		}
		for c := 0; c < width; c++ {
			if counts[c] > 0 && cols[c] > lo {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 10), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  0s%*s%.0fs  (%s)\n", strings.Repeat(" ", 10),
		width-8, "", span, yunit)
	return b.String()
}
