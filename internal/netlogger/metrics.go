// Metrics registry: named counters, gauges, and log-bucketed latency
// histograms sampled in virtual time. Components register instruments
// lazily by name (gridftp.control.rtts, rm.retries, simnet.flows.active,
// ...) and the registry renders a deterministic snapshot table for
// experiment reports. All three kinds are mergeable (sketch.go):
// host, site, and grid tiers report from this one sketch family.
//
// Like the tracer, a nil *Registry hands out nil instruments whose
// methods no-op, so instrumentation never needs guarding.
package netlogger

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"esgrid/internal/vtime"
)

// Registry owns named instruments. Instruments are created on first use
// and shared by name thereafter.
type Registry struct {
	clk vtime.Clock

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hlogs    map[string]*LogHistogram
}

// NewRegistry returns an empty registry on clk.
func NewRegistry(clk vtime.Clock) *Registry {
	return &Registry{
		clk:      clk,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hlogs:    map[string]*LogHistogram{},
	}
}

// Counter is a monotonically increasing count.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value reads the counter (0 for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is an instantaneous level that also tracks its extremes and the
// running sum/count of set levels, so a Summary (min/max/sum/count/last)
// can fold up the telemetry tree.
type Gauge struct {
	mu  sync.Mutex
	v   float64
	min float64
	max float64
	sum float64
	n   int64
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.observeLocked(v)
	g.mu.Unlock()
}

// Add shifts the gauge by d (use negative d to decrement).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.observeLocked(g.v + d)
	g.mu.Unlock()
}

func (g *Gauge) observeLocked(v float64) {
	g.v = v
	if g.n == 0 || v < g.min {
		g.min = v
	}
	if v > g.max {
		g.max = v
	}
	g.sum += v
	g.n++
}

// Value reads the current level.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Max reads the high-water mark.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// walk calls fn with every instrument (a *Counter, *Gauge or
// *LogHistogram) in name order, counters before gauges before
// histograms on a shared name, under the registry lock. It is the one
// walk behind Render and Mergeable.
func (r *Registry) walk(fn func(name string, inst any)) {
	if r == nil {
		return
	}
	type row struct {
		name string
		inst any
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var rows []row
	//esglint:unordered rows are sorted by name below before fn sees them
	for name, c := range r.counters {
		rows = append(rows, row{name, c})
	}
	//esglint:unordered rows are sorted by name below before fn sees them
	for name, g := range r.gauges {
		rows = append(rows, row{name, g})
	}
	//esglint:unordered rows are sorted by name below before fn sees them
	for name, h := range r.hlogs {
		rows = append(rows, row{name, h})
	}
	// Stable, so a name shared across kinds keeps the gather order.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, row := range rows {
		fn(row.name, row.inst)
	}
}

// Render formats every instrument, in name order, as an aligned table.
func (r *Registry) Render() string {
	type row struct{ name, kind, value string }
	var rows []row
	r.walk(func(name string, inst any) {
		switch inst := inst.(type) {
		case *Counter:
			rows = append(rows, row{name, "counter", fmt.Sprintf("%g", inst.Value())})
		case *Gauge:
			rows = append(rows, row{name, "gauge", fmt.Sprintf("%g (max %g)", inst.Value(), inst.Max())})
		case *LogHistogram:
			rows = append(rows, row{name, "loghist", inst.Tail().String()})
		}
	})
	if len(rows) == 0 {
		return "(no metrics)\n"
	}
	nameW, kindW := len("metric"), len("type")
	for _, row := range rows {
		nameW = max(nameW, len(row.name))
		kindW = max(kindW, len(row.kind))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %-*s  %s\n", nameW, "metric", kindW, "type", "value")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-*s  %-*s  %s\n", nameW, row.name, kindW, row.kind, row.value)
	}
	return b.String()
}
