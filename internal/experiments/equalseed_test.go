package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"esgrid/internal/flight"
	"esgrid/internal/simnet"
)

// flushRec is one simnet.FlushObserver call.
type flushRec struct {
	now    time.Duration
	sig    uint64
	nflows int
}

// fingerprint is what a run leaves behind, from every rig it builds; the
// repo's central promise is that an equal-seed run reproduces it byte for
// byte. It leaves out wall-clock readings, the one thing allowed to differ.
type fingerprint struct {
	result        string     // the result's %+v, wall-clock and pointer fields cleared
	flushes       []flushRec // every simnet.FlushObserver call, in order
	core, data    uint64     // flight records written, summed over the rigs
	dumps         []string   // each recording rig's flight dump
	jsonl         string     // every logging rig's netlogger JSONL
	skipped, ties uint64     // simnet.Net.GrowthStats, summed over the rigs
}

// capture runs run with every rig it builds watched (rigBuilt and
// simnet.FlushObserver) and returns its fingerprint.
func capture(run func() (any, error)) (fingerprint, error) {
	var f fingerprint
	var rigs []*rig
	rigBuilt = func(g *rig) { rigs = append(rigs, g) }
	simnet.FlushObserver = func(now time.Duration, sig uint64, nflows int) {
		f.flushes = append(f.flushes, flushRec{now, sig, nflows})
	}
	res, err := run()
	rigBuilt, simnet.FlushObserver = nil, nil
	f.result = fmt.Sprintf("%+v", res)
	for _, g := range rigs {
		// GrowthStats cycles the Net's lock: the happens-before edge the
		// recorder's quiescence contract asks for before its rings are read.
		s, _, ties := g.Net.GrowthStats()
		f.skipped, f.ties = f.skipped+s, f.ties+ties
		if g.rec != nil {
			st := g.rec.Stats()
			f.core, f.data = f.core+st.CoreWritten, f.data+st.DataWritten
			f.dumps = append(f.dumps, string(g.rec.Dump()))
		}
		if g.log != nil {
			f.jsonl += g.log.JSONL()
		}
	}
	return f, err
}

// fold is the first 8 bytes, in hex, of SHA-256 over one 24-byte
// little-endian (now, sig, nflows) record per flush. Two runs that agree
// here saw bitwise-equal flow state at every allocation boundary.
func (f fingerprint) fold() string {
	h := sha256.New()
	var b [24]byte
	for _, r := range f.flushes {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.now))
		binary.LittleEndian.PutUint64(b[8:], r.sig)
		binary.LittleEndian.PutUint64(b[16:], uint64(r.nflows))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// divergence says where equal-seed run b parted from run a: the first
// differing flush (the allocation boundary that introduced it), flight
// record with its causal chain, JSONL line and result text. It is empty
// when the two runs are identical.
func (a fingerprint) divergence(b fingerprint) string {
	var out []string
	if i := firstDiff(a.flushes, b.flushes); i < min(len(a.flushes), len(b.flushes)) {
		fa, fb := a.flushes[i], b.flushes[i]
		out = append(out, fmt.Sprintf("first diverging flush is #%d of %d at %v: fingerprint %#x over %d flows, run 2 %#x over %d flows at %v",
			i, len(a.flushes), fa.now, fa.sig, fa.nflows, fb.sig, fb.nflows, fb.now))
	} else if len(a.flushes) != len(b.flushes) {
		out = append(out, fmt.Sprintf("flush streams agree for %d flushes, then run 1 has %d and run 2 %d",
			i, len(a.flushes), len(b.flushes)))
	}
	if a.core != b.core || a.data != b.data {
		out = append(out, fmt.Sprintf("flight records written: %d core, %d data; run 2 %d, %d", a.core, a.data, b.core, b.data))
	}
	if d := flightDivergence(a.dumps, b.dumps); d != "" {
		out = append(out, d)
	}
	if line, la, lb := diffLine(a.jsonl, b.jsonl); line > 0 {
		out = append(out, fmt.Sprintf("JSONL differs from line %d: %s\n  run 2: %s", line, la, lb))
	}
	if a.skipped != b.skipped || a.ties != b.ties {
		out = append(out, fmt.Sprintf("growth ticks skipped %d, ties %d; run 2 %d, %d", a.skipped, a.ties, b.skipped, b.ties))
	}
	if line, la, lb := diffLine(a.result, b.result); line > 0 {
		out = append(out, fmt.Sprintf("result differs: %s\n  run 2: %s", la, lb))
	}
	return strings.Join(out, "\n")
}

// flightDivergence parses the first pair of rig dumps that differ and
// names the first differing record — its dump line: instant, kind, seq,
// parent, site and due instant or payload — with its provenance chain in
// run 1. A data record (connection transition, allocator pass) has no
// parent of its own, so its chain is the latest core record's before it.
func flightDivergence(a, b []string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("run 1 recorded %d rigs, run 2 %d", len(a), len(b))
	}
	for k := range a {
		if a[k] == b[k] {
			continue
		}
		ra, errA := flight.ParseDump(strings.NewReader(a[k]))
		rb, errB := flight.ParseDump(strings.NewReader(b[k]))
		if err := errors.Join(errA, errB); err != nil {
			return fmt.Sprintf("rig %d's flight dumps differ and do not parse: %v", k, err)
		}
		i := firstDiff(ra, rb)
		if i == len(ra) || i == len(rb) {
			return fmt.Sprintf("rig %d's flight dumps agree for %d records, then run 1 has %d and run 2 %d", k, i, len(ra), len(rb))
		}
		// A dump holds one record per line, so record i is line i.
		la, lb := strings.Split(a[k], "\n"), strings.Split(b[k], "\n")
		chain := "no core record before it\n"
		for j := i; j >= 0; j-- {
			if ra[j].Kind < flight.KConnOpen {
				chain = flight.FormatChain(flight.ChainOf(ra, ra[j].Seq))
				break
			}
		}
		return fmt.Sprintf("first diverging flight record is #%d of %d in rig %d: %s\n  run 2: %s\nits chain in run 1:\n%s",
			i, len(ra), k, la[i], lb[i], chain)
	}
	return ""
}

// firstDiff is the index of the first element at which a and b differ,
// or the shorter one's length when it is a prefix of the other.
func firstDiff[T comparable](a, b []T) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// diffLine locates the first line at which a and b differ: its 1-based
// number (0 when they are equal) and each side's text of it from 40
// bytes before the first differing byte, at most 120 bytes.
func diffLine(a, b string) (line int, la, lb string) {
	if a == b {
		return 0, "", ""
	}
	i := firstDiff([]byte(a), []byte(b))
	start := strings.LastIndexByte(a[:i], '\n') + 1
	clip := func(s string) string {
		s, _, _ = strings.Cut(s[max(start, i-40):], "\n")
		return s[:min(len(s), 120)]
	}
	return strings.Count(a[:start], "\n") + 1, clip(a), clip(b)
}

// dumpFlightOnFailure writes a failed run's flight dump to
// $ESG_FLIGHT_DIR/<name>.flight.jsonl. CI sets the variable and uploads
// the directory when the job fails, so a red equal-seed row or soak run
// ships the core event window that led up to it.
func dumpFlightOnFailure(t *testing.T, name, dump string) {
	t.Helper()
	dir := os.Getenv("ESG_FLIGHT_DIR")
	if dir == "" || dump == "" {
		return
	}
	path := filepath.Join(dir, name+".flight.jsonl")
	if err := errors.Join(os.MkdirAll(dir, 0o755), os.WriteFile(path, []byte(dump), 0o644)); err != nil {
		t.Logf("flight recorder: dump failed: %v", err)
		return
	}
	t.Logf("flight recorder: wrote %d records to %s", strings.Count(dump, "\n"), path)
}

// same fails t when run b does not reproduce run a — in full, or only
// in its artifacts (result and JSONL) when trace is false, as when one
// run is instrumented and the other bare — with the divergence report,
// and writes both runs' flight dumps.
func same(t *testing.T, name string, p int, a, b fingerprint, trace bool) bool {
	t.Helper()
	x, y := a, b
	if !trace {
		x, y = fingerprint{result: a.result, jsonl: a.jsonl}, fingerprint{result: b.result, jsonl: b.jsonl}
	}
	if d := x.divergence(y); d != "" {
		t.Errorf("equal-seed runs diverged:\n%s", d)
		dumpPair(t, name, p, a, b)
		return false
	}
	return true
}

// dumpPair writes runs a and b's flight dumps (every rig's, in build
// order) as <name>-P<p>-a and <name>-P<p>-b.
func dumpPair(t *testing.T, name string, p int, a, b fingerprint) {
	t.Helper()
	for i, f := range []fingerprint{a, b} {
		dumpFlightOnFailure(t, fmt.Sprintf("%s-P%d-%c", name, p, 'a'+i), strings.Join(f.dumps, ""))
	}
}

// row is one experiment configuration the oracle runs.
type row struct {
	name  string
	short bool // skipped in -short mode
	// run returns the result with its wall-clock and pointer fields
	// cleared; the row's own checks fail it with an error.
	run func() (any, error)
}

// runs runs r once per entry of procs, at that GOMAXPROCS, and returns
// their fingerprints.
func (r row) runs(t *testing.T, procs ...int) []fingerprint {
	t.Helper()
	if r.short && testing.Short() {
		t.Skipf("%s in -short mode", r.name)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	fs := make([]fingerprint, len(procs))
	for i, p := range procs {
		runtime.GOMAXPROCS(p)
		var err error
		if fs[i], err = capture(r.run); err != nil {
			t.Fatalf("%s at P=%d: %v", r.name, p, err)
		}
	}
	return fs
}

// equalSeedRows are the configurations the equal-seed oracle replays.
var equalSeedRows = []row{
	{name: "table1", run: func() (any, error) {
		r, err := RunTable1(shortTable1())
		r.Flight = nil
		return r, err
	}},
	{name: "figure8", run: func() (any, error) {
		cfg := DefaultFigure8Config()
		cfg.Duration, cfg.ParallelismSchedule, cfg.Faults = 45*time.Minute, []int{1, 8}, true
		r, err := RunFigure8(cfg)
		r.Flight = nil
		return r, err
	}},
	// S11's widest population: 1024 clients over 128 disjoint site
	// components, many of them dirty in one instant.
	{name: "scale-1024", short: true, run: func() (any, error) { return scaleRow(3, 1024) }},
	{name: "scale-48", run: func() (any, error) { return scaleRow(9, 48) }},
	// Randomized S13 fault schedules: the JSONL carries every transfer
	// event, the dump the core event window and connection transitions.
	{name: "chaos-41-4", run: func() (any, error) { return chaosRow(41, 4) }},
	{name: "chaos-77-6", run: func() (any, error) { return chaosRow(77, 6) }},
	{name: "chaos-91-6", run: func() (any, error) { return chaosRow(91, 6) }},
	{name: "lifeline", run: func() (any, error) {
		cfg := DefaultLifelineConfig()
		cfg.Files, cfg.FileMB = 2, 8
		return RunLifeline(cfg)
	}},
	// Parallel streams: which data connection carries which block is
	// decided by the schedule, so the per-conn byte counts in the trace
	// hold across P only because the schedule does.
	{name: "lifeline-p4", run: func() (any, error) {
		cfg := DefaultLifelineConfig()
		cfg.Files, cfg.FileMB, cfg.Parallelism = 2, 8, 4
		return RunLifeline(cfg)
	}},
	{name: "monitor-host.crash-77", run: func() (any, error) {
		r, err := RunMonitorCase(MonitorCases()[0], 77, DefaultMonitorConfig().Grace, true)
		r.Flight = nil
		if err == nil && r.AlertJSONL == "" {
			err = errors.New("no alerts on a fault-laden run")
		}
		return r, err
	}},
	// Equal configs reproduce the identical chain: what makes a printed
	// chain a replayable bug report.
	{name: "provenance", run: func() (any, error) {
		r, err := RunProvenance(DefaultProvenanceConfig(), 8)
		r.Run.Flight = nil
		return r, err
	}},
}

func scaleRow(seed int64, clients int) (any, error) {
	r, err := RunScale(seed, []int{clients}, 2)
	r.WallElapsed = nil
	return r, err
}

// chaosRow runs one replay seed's schedule and fails on any invariant
// violation or an empty flight dump.
func chaosRow(seed int64, faults int) (any, error) {
	cfg := soakConfig(seed)
	r, err := RunChaosSchedule(cfg, ChaosScheduleFor(cfg, seed, faults))
	if err == nil {
		err = r.Report.Err()
	}
	if err == nil && r.Flight.Stats().CoreRetained == 0 {
		err = errors.New("flight recorder retained nothing")
	}
	r.Flight = nil
	return r, err
}

// TestEqualSeed runs every row at GOMAXPROCS=1 and at the process's P and
// compares the full fingerprints.
func TestEqualSeed(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	for _, r := range equalSeedRows {
		t.Run(r.name, func(t *testing.T) {
			fs := r.runs(t, 1, p)
			if same(t, r.name, p, fs[0], fs[1], true) && p > 1 {
				t.Logf("cross-P holds: P=1 and P=%d agree", p)
			}
		})
	}
}

// TestDivergenceLocalises: a flipped rate bit changes the flush that
// applied it and a moved event the flight dump; the report must name
// that flush and its instant, and the record with its provenance chain.
func TestDivergenceLocalises(t *testing.T) {
	const dump = `{"t":0,"kind":"schedule","seq":1,"parent":0,"site":"oracle.root","due":1000000000}
{"t":1000000000,"kind":"fire","seq":1,"parent":0,"site":"oracle.root"}
{"t":1000000000,"kind":"schedule","seq":2,"parent":1,"site":"oracle.child","due":2000000000}
{"t":2000000000,"kind":"fire","seq":2,"parent":1,"site":"oracle.child"}
`
	a := fingerprint{
		result:  "{Peak:1.07e+09 Sustained:4.5e+08}",
		flushes: []flushRec{{time.Second, 0xa1, 32}, {2 * time.Second, 0xb2, 32}, {3 * time.Second, 0xc3, 31}},
		dumps:   []string{dump},
	}
	if d := a.divergence(a); d != "" {
		t.Fatalf("identical runs reported a divergence: %s", d)
	}
	b := a
	b.flushes = append([]flushRec(nil), a.flushes...)
	b.flushes[1].sig ^= 1
	b.flushes[2].sig ^= 0x55
	b.dumps = []string{strings.Replace(dump, `"t":2000000000,"kind":"fire","seq":2`, `"t":2500000000,"kind":"fire","seq":2`, 1)}
	d := a.divergence(b)
	for _, want := range []string{
		"first diverging flush is #1 of 3 at 2s", "0xb2", "0xb3",
		`first diverging flight record is #3 of 4 in rig 0: {"t":2000000000,"kind":"fire","seq":2,"parent":1,"site":"oracle.child"}`,
		`run 2: {"t":2500000000,"kind":"fire","seq":2,"parent":1,"site":"oracle.child"}`,
		"its chain in run 1:\nt=1.000000s  seq=1        fire      oracle.root\n  └─ t=2.000000s  seq=2        fire      oracle.child\n",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("report lacks %q:\n%s", want, d)
		}
	}
	if strings.Contains(d, "#2") || strings.Contains(d, "result") {
		t.Errorf("report names more than the first divergence:\n%s", d)
	}
	// A data record with no core record before it has no chain to name.
	const data = `{"t":0,"kind":"conn-open","seq":1,"conn":1}` + "\n"
	d = flightDivergence([]string{data}, []string{strings.Replace(data, `"t":0`, `"t":5`, 1)})
	if want := "its chain in run 1:\nno core record before it\n"; !strings.HasSuffix(d, want) {
		t.Errorf("data-only report lacks %q:\n%s", want, d)
	}
}
