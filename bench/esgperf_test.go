package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestMedianAndTailPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	// The tail quoted beside a median is the highest percentile with at
	// least ten samples beyond it.
	for _, c := range []struct {
		n, want int // want in per mille
		ok      bool
	}{
		{9, 0, false}, {39, 0, false}, {40, 750, true}, {99, 750, true}, {100, 900, true},
		{199, 900, true}, {200, 950, true}, {1000, 990, true}, {9999, 990, true}, {10000, 999, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if got := percentile(xs, 900); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles(1..4) = %v, %v; want 1.25, 3.75", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// The comparison rule on synthetic samples: with a 10 % bound a 15 %
// shift is flagged; a 3 % shift and an A/A pair are not.
func TestMediansDisagree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(centre float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = centre * (1 + 0.02*rng.NormFloat64())
		}
		return xs
	}
	for trial := 0; trial < 100; trial++ {
		a := draw(100)
		if mediansDisagree(a, draw(100), 0.10) {
			t.Fatal("an A/A pair was flagged")
		}
		if mediansDisagree(a, draw(103), 0.10) {
			t.Fatal("a 3 % shift was flagged")
		}
		if !mediansDisagree(a, draw(115), 0.10) || !mediansDisagree(draw(115), a, 0.10) {
			t.Fatal("a 15 % shift was not flagged")
		}
	}
}

func TestCoveredBy(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	kids := []span{
		{Start: 150, End: 180}, // overlaps the next
		{Start: 110, End: 160},
		{Start: 190, End: 250}, // clipped to the parent
		{Start: 120, End: 130}, // inside the second
	}
	if got := coveredBy(parent, kids); got != 80 {
		t.Errorf("coveredBy = %d, want 80 (110..180 and 190..200)", got)
	}
}

// On one P a sim op whose digest differs has failed; on more, where
// the scheduler's order is not a function of the seed, it is counted.
func TestSimDigestCheck(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		texts := []string{"a", "a", "b", "a"}
		w := simWorkload(workload{name: "fake"}, func(runConfig) (string, map[string]float64, error) {
			s := texts[0]
			texts = texts[1:]
			return s, nil, nil
		})
		fx, err := w.open(runConfig{seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var failed []int
		for i := 0; i < 4; i++ {
			if err := errors.Join(fx.op(i), fx.check(i)); err != nil {
				failed = append(failed, i)
			}
		}
		if procs == 1 && (len(failed) != 1 || failed[0] != 2) {
			t.Errorf("GOMAXPROCS=1: ops %v failed, want [2]", failed)
		}
		if procs > 1 && len(failed) != 0 {
			t.Errorf("GOMAXPROCS=%d: ops %v failed, want none", procs, failed)
		}
		if got := fx.(*simFixture).divergentOps(); got != 1 {
			t.Errorf("GOMAXPROCS=%d: %d divergent ops, want 1", procs, got)
		}
	}
}

// On one P, equal seeds give equal simulated statistics: the property
// the gated pass holds every sim op to.
func TestDigestStability(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomises goroutine scheduling")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := runConfig{seed: 5, smoke: true}
	for name, run := range map[string]simRun{"table1": runTable1, "figure8": runFigure8, "scale1k": runScale1k} {
		first, _, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Errorf("%s: two runs of seed %d differ:\n%s\n%s", name, cfg.seed, first, again)
		}
	}
}

// BENCHMARK.json is the contract; the tables in this package are what
// the program prints. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads()", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads() has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in endToEnd", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, endToEnd has %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in perLayer", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, perLayer has %+v", i, got, d)
		}
	}
}

// layersOf lists, per workload, the layer metrics its traced pass must
// measure (read non-zero).
var layersOf = map[string][]string{
	"sim-table1":  {"vtime.core_events", "vtime.ns_per_core_event", "simnet.data_records"},
	"sim-figure8": {"vtime.core_events", "vtime.ns_per_core_event", "simnet.data_records"},
	"sim-scale1k": {"simnet.alloc_passes", "simnet.flows_visited", "simnet.flows_per_pass"},
	"tcp-get": {"gridftp.get_ms", "gridftp.complete_ms", "gridftp.blocks", "dirstore.send_busy_ms", "dirstore.recv_busy_ms",
		"dirstore.open_ms", "dirstore.create_ms", "transport.bytes_read", "transport.bytes_written", "trace.coverage_pct"},
	"tcp-put": {"gridftp.put_ms", "gridftp.blocks", "dirstore.send_busy_ms", "dirstore.recv_busy_ms",
		"dirstore.open_ms", "dirstore.create_ms", "transport.bytes_read", "transport.bytes_written", "trace.coverage_pct"},
	"tcp-sessions": {"gridftp.dial_ms", "gridftp.size_ms", "gridftp.get_ms", "gridftp.close_ms", "gridftp.blocks",
		"dirstore.send_busy_ms", "transport.dials", "transport.accepts", "transport.conn_setup_us"},
}

var probeMetrics = map[string][]string{
	"sim": {"vtime.event_ns", "vtime.handoff_ns", "vtime.cohort_wake_ns", "simnet.flush_ns_per_flow",
		"simnet.virtual_block_ns", "netlogger.emit_ns", "netlogger.hist_observe_ns", "flight.record_ns"},
	"tcp": {"gsi.handshake_us", "gsi.verify_us"},
}

// The smoke run drives every workload, both passes, and every probe
// with tiny inputs: one warm-up op and one timed op each. It measures
// nothing; it is here so that a change to the experiments, gridftp, gsi,
// vtime, simnet, netlogger or flight API breaks tier-1 and not the next
// performance change.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 3, scratch: t.TempDir(), smoke: true}
			opt := runOptions{seconds: 0, minOps: 1, outDir: t.TempDir()}

			res, err := runGated(w, cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
				t.Fatalf("gated: correct=%v, %d of %d ops failed; want 2 ops, none failed", res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				if m := res.Metrics[d.name]; !(m.Value > 0) || m.Unit != d.unit {
					t.Errorf("gated: %s = %v %s, want a positive number of %s", d.name, m.Value, m.Unit, d.unit)
				}
			}

			// Two timed ops, so a decorated workload runs one on each
			// of its plain and traced fixtures.
			opt.minOps = 2
			res, err = runTraced(w, cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced: %d metrics, want every one of the %d per-layer metrics", len(res.Metrics), len(perLayer))
			}
			want := append(append([]string(nil), layersOf[w.name]...), probeMetrics[w.name[:3]]...)
			for _, name := range want {
				if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("traced: %s = %v, want a positive number", name, m.Value)
				}
			}
			if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("traced: %v", err)
			}
		})
	}
}
