package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// exactCounts are layer counts that depend on the seed alone. They are
// reported as counts, never averaged: if one differs between two ops of
// a run the report says so by name.
var exactCounts = []string{
	"vtime.core_events", "simnet.alloc_passes", "simnet.flows_visited", "simnet.data_records",
}

// runTraced is the traced pass: it measures the per-layer metrics.
// It alternates two kinds of op, so that host drift falls on both
// alike. Even ops are traced: spans, counts and runtime counters are
// taken around them. Odd ops are the comparison, only timed:
//
//   - for a workload whose fixture takes decorators (the tcp ones), the
//     same op on an undecorated fixture; the difference of the medians is
//     trace.overhead_pct;
//   - for a sim workload, whose op builds its own grid and takes no
//     decorators, the same op with every core's P instead of one; the
//     difference is vtime.multicore_slowdown_pct, the cost of handing off
//     between threads that ROADMAP item 1 sets out to remove.
func runTraced(w workload, cfg runConfig, opt runOptions) (*result, error) {
	res := &result{}
	tr := &tracer{}
	warmup := w.warmup
	if cfg.smoke {
		warmup = 1
	}
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	allProcs := 0 // the comparison's GOMAXPROCS, when that is what it varies
	if w.procs > 0 && runtime.NumCPU() > w.procs {
		allProcs = runtime.NumCPU()
	}

	tcfg := cfg
	tcfg.tr = tr
	traced, err := w.open(tcfg)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer traced.close()
	comparison := traced
	decorated := w.decorated
	if decorated {
		if comparison, err = w.open(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		defer comparison.close()
	}
	compare := decorated || allProcs > 0
	warm := []fixture{traced}
	if decorated {
		warm = append(warm, comparison)
	}
	for _, fx := range warm {
		res.warmUp(fx, warmup)
	}

	// series holds one value per traced op for each layer metric.
	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	var tracedWall, comparisonWall []float64
	deadline := nowNs() + int64(opt.seconds*1e9)
	for i := 0; (i < opt.minOps || nowNs() < deadline) && !res.tooManyFailures(); i++ {
		if i%w.gcEvery == 0 {
			runtime.GC()
		}
		if compare && i%2 == 1 {
			if allProcs > 0 {
				runtime.GOMAXPROCS(allProcs)
			}
			s, err := timeOp(comparison, i)
			if err == nil && allProcs > 0 {
				err = comparison.check(i) // counts the op if it diverged
			}
			if allProcs > 0 {
				runtime.GOMAXPROCS(w.procs)
			}
			if res.attempt("op", i, err) {
				comparisonWall = append(comparisonWall, float64(s.wallNs))
			}
			continue
		}
		gc0, pause0 := gcCounters()
		net0 := tr.counts()
		tr.beginOp(i)
		s, err := timeOp(traced, i)
		tr.endOp()
		gc1, pause1 := gcCounters()
		net1 := tr.counts()
		if err == nil && w.checkEvery > 0 && i%w.checkEvery == 0 {
			err = traced.check(i)
		}
		if !res.attempt("op", i, err) {
			continue
		}
		tracedWall = append(tracedWall, float64(s.wallNs))
		add("runtime.gc_cycles", float64(gc1-gc0))
		add("runtime.gc_pause_ms", float64(pause1-pause0)/1e6)
		add("runtime.alloc_mb", float64(s.allocB)/(1<<20))
		add("transport.dials", float64(net1.dials-net0.dials))
		add("transport.accepts", float64(net1.accepts-net0.accepts))
		add("transport.bytes_read", float64(net1.read-net0.read))
		add("transport.bytes_written", float64(net1.written-net0.written))
		counts := traced.layers()
		for _, name := range sortedKeys(counts) {
			add(name, counts[name])
		}
		if ev := counts["vtime.core_events"]; ev > 0 {
			add("vtime.ns_per_core_event", float64(s.wallNs)/ev)
		}
	}
	for _, o := range tr.analyse() {
		if o.count["op"] == 0 {
			continue // warm-up spans, recorded before the first beginOp
		}
		ms := func(name string) float64 { return float64(o.dur[name]) / 1e6 }
		for _, call := range []string{"dial", "size", "get", "put", "complete", "close"} {
			add("gridftp."+call+"_ms", ms("gridftp."+call))
		}
		add("gridftp.blocks", float64(o.count["dirstore.send"]))
		add("dirstore.send_busy_ms", ms("dirstore.send"))
		add("dirstore.recv_busy_ms", ms("dirstore.recv"))
		add("dirstore.open_ms", ms("dirstore.open"))
		add("dirstore.create_ms", ms("dirstore.create"))
		if n := o.count["transport.dial"]; n > 0 {
			add("transport.conn_setup_us", float64(o.dur["transport.dial"])/1e3/float64(n))
		}
		if o.transfer > 0 {
			add("gridftp.transfer_self_ms", float64(o.transfer-o.covered)/1e6)
			add("dirstore.stream_wait_ms", float64(streams*o.transfer-o.dur["dirstore.send"])/1e6)
			add("trace.coverage_pct", 100*float64(o.covered)/float64(o.transfer))
		}
	}

	values := map[string]float64{}
	for _, name := range sortedKeys(series) {
		values[name] = median(series[name])
	}
	res.printf("%s seed=%d traced: %d ops attempted, %d failed, %d traced", w.name, cfg.seed, res.Attempted, res.Failed, len(tracedWall))
	for _, name := range exactCounts {
		if xs := sorted(series[name]); len(xs) > 0 && xs[0] != xs[len(xs)-1] {
			res.printf("  NOT REPEATABLE  %s ranged %.0f..%.0f over %d ops; the median is reported", name, xs[0], xs[len(xs)-1], len(xs))
		}
	}
	if len(tracedWall) > 0 && len(comparisonWall) > 0 {
		t, c := median(tracedWall), median(comparisonWall)
		if decorated {
			values["trace.overhead_pct"] = 100 * (t/c - 1)
			res.printf("  op_wall_ms  traced %.3f, untraced %.3f, interleaved", t/1e6, c/1e6)
		} else {
			values["vtime.multicore_slowdown_pct"] = 100 * (c/t - 1)
			res.printf("  op_wall_ms  GOMAXPROCS=%d %.3f, GOMAXPROCS=%d %.3f, interleaved", w.procs, t/1e6, allProcs, c/1e6)
		}
	}
	if !decorated {
		res.printf("  no decorators wrap a sim op: trace.overhead_pct is 0 by construction")
	}
	if d, ok := traced.(interface{ divergentOps() int }); ok {
		values["vtime.divergent_ops"] = float64(d.divergentOps())
	}
	var probeLine []string
	for _, p := range w.probes {
		t0 := nowNs()
		if err := p.run(cfg, values); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		probeLine = append(probeLine, fmt.Sprintf("%s %.1f s", p.name, float64(nowNs()-t0)/1e9))
	}
	res.printf("  probes      %s", strings.Join(probeLine, ", "))

	res.Correct = res.Failed == 0
	res.set(perLayer, values)
	for _, d := range perLayer {
		if v := values[d.name]; v != 0 {
			res.printf("  %-26s %14.3f %s", d.name, v, d.unit)
		}
	}
	res.note(traced)
	env := readEnvironment(cfg.scratch)
	res.printf("  env         %s", env)
	if err := tr.write(filepath.Join(opt.outDir, "trace-"+w.name+".json"), w.name, env); err != nil {
		return nil, err
	}
	return res, writeResultFile(opt.outDir, w.name, "traced", env, res)
}

// gcCounters reads collector activity for the traced pass.
func gcCounters() (cycles int64, pauseNs int64) {
	var st debug.GCStats
	debug.ReadGCStats(&st)
	return st.NumGC, int64(st.PauseTotal)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
