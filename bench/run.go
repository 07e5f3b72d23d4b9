package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// result is one run of one workload. Its JSON form is the line the
// driver reads; report is for people.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
	report    []string
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) printf(format string, a ...any) {
	r.report = append(r.report, fmt.Sprintf(format, a...))
}

// note adds the fixture's own lines, if it has any, to the report.
func (r *result) note(fx fixture) {
	if fx, ok := fx.(interface{ notes() []string }); ok {
		for _, line := range fx.notes() {
			r.printf("  %s", line)
		}
	}
}

// attempt counts one op; err is its own error or its check's.
func (r *result) attempt(what string, i int, err error) bool {
	r.Attempted++
	if err == nil {
		return true
	}
	r.Failed++
	if r.Failed <= 5 {
		fmt.Fprintf(os.Stderr, "esgperf: %s %d failed: %v\n", what, i, err)
	}
	return false
}

// warmUp runs n warm-up ops on fx, each one verified, and returns the
// time the verifying took.
func (r *result) warmUp(fx fixture, n int) (checkingNs int64) {
	for i := 0; i < n; i++ {
		err := fx.op(i)
		c0 := nowNs()
		if err == nil {
			err = fx.check(i)
		}
		checkingNs += nowNs() - c0
		r.attempt("warm-up op", i, err)
	}
	return checkingNs
}

// tooManyFailures stops a run whose fixture is broken: every further
// op would fail at once and the loop would spin until the deadline.
func (r *result) tooManyFailures() bool { return r.Failed > 100 }

func (r *result) set(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]measure, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = measure{values[d.name], d.unit}
	}
}

func (r *result) jsonLine() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only floats, ints and strings: cannot fail
	}
	return string(b)
}

// sample is one timed op.
type sample struct {
	wallNs, cpuNs  int64
	allocs, allocB uint64
}

// timeOp runs op i of fx between the wall clock, the process CPU clock
// and the allocation counters. runtime.ReadMemStats stops the world
// and flushes every P's allocation cache, so the counts are exact;
// runtime/metrics lags by up to a span per size class, which is more
// than a whole tcp op allocates.
func timeOp(fx fixture, i int) (sample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuNs()
	t0 := nowNs()
	err := fx.op(i)
	t1 := nowNs()
	c1 := cpuNs()
	runtime.ReadMemStats(&m1)
	return sample{t1 - t0, c1 - c0, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}, err
}

// runOptions sizes a run.
type runOptions struct {
	seconds float64 // the timed section lasts this long...
	minOps  int     // ...and at least this many ops
	outDir  string  // traces and result files
}

// runGated is the untraced pass: it measures the end-to-end metrics.
func runGated(w workload, cfg runConfig, opt runOptions) (*result, error) {
	res := &result{}
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	setups, warmup := w.setups, w.warmup
	if cfg.smoke {
		setups, warmup = 1, 1
	}

	var fx fixture
	var setupS []float64
	for s := 0; s < setups; s++ {
		runtime.GC()
		t0 := nowNs()
		var err error
		if fx, err = w.open(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		// Set-up is the program's: stores, server, dial, warm-up ops.
		// Generating the input and verifying outputs are the benchmark's.
		own := res.warmUp(fx, warmup)
		if g, ok := fx.(interface{ generatingNs() int64 }); ok {
			own += g.generatingNs()
		}
		setupS = append(setupS, float64(nowNs()-t0-own)/1e9)
		if s < setups-1 {
			fx.close()
		}
	}
	defer fx.close()

	var wall, cpu, allocs []float64
	deadline := nowNs() + int64(opt.seconds*1e9)
	for i := 0; (i < opt.minOps || nowNs() < deadline) && !res.tooManyFailures(); i++ {
		if i%w.gcEvery == 0 {
			runtime.GC()
		}
		s, err := timeOp(fx, i)
		if err == nil && w.checkEvery > 0 && i%w.checkEvery == 0 {
			err = fx.check(i)
		}
		if res.attempt("op", i, err) {
			wall = append(wall, float64(s.wallNs)/1e6)
			cpu = append(cpu, float64(s.cpuNs)/1e6)
			allocs = append(allocs, float64(s.allocs))
		}
	}

	res.Correct = res.Failed == 0
	values := map[string]float64{
		"op_wall_ms": median(wall),
		"op_cpu_ms":  median(cpu),
		"op_allocs":  median(allocs),
		"max_rss_mb": maxRSSMB(),
		"setup_s":    median(setupS),
	}
	res.set(endToEnd, values)

	env := readEnvironment(cfg.scratch)
	res.printf("%s seed=%d: %d ops attempted, %d failed, %d timed", w.name, cfg.seed, res.Attempted, res.Failed, len(wall))
	tail := ""
	if p, ok := tailPercentile(len(wall)); ok {
		tail = fmt.Sprintf(" p%g %.3f", float64(p)/10, percentile(wall, p))
	}
	res.printf("  op_wall_ms  median %.3f%s (n=%d)", values["op_wall_ms"], tail, len(wall))
	if fx, ok := fx.(interface{ bytesPerOp() int64 }); ok && values["op_wall_ms"] > 0 {
		gib := float64(fx.bytesPerOp()) / (1 << 30)
		res.printf("              %.2f Gb/s, %.3f CPU-s per GiB (both ends)",
			float64(fx.bytesPerOp())*8/values["op_wall_ms"]/1e6, values["op_cpu_ms"]/1000/gib)
	}
	res.printf("  op_cpu_ms   median %.3f", values["op_cpu_ms"])
	res.printf("  op_allocs   median %.0f", values["op_allocs"])
	res.printf("  max_rss_mb  %.1f", values["max_rss_mb"])
	res.printf("  setup_s     median %.3f of %.3f", values["setup_s"], setupS)
	res.note(fx)
	res.printf("  env         %s", env)
	return res, writeResultFile(opt.outDir, w.name, "gated", env, res)
}

// writeResultFile stores a result next to its environment.
func writeResultFile(dir, workload, pass string, env environment, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload    string      `json:"workload"`
		Pass        string      `json:"pass"`
		Environment environment `json:"environment"`
		Result      *result     `json:"result"`
	}{workload, pass, env, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-%s.json", pass, workload)), append(b, '\n'), 0o644)
}
