package flight

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"esgrid/internal/vtime"
)

var (
	siteTestGrow  = vtime.RegisterSite("flighttest.grow")
	siteTestLoss  = vtime.RegisterSite("flighttest.loss")
	siteTestRetry = vtime.RegisterSite("flighttest.retry")
)

// runWorkload drives a small causal workload on a fresh Sim with rec
// attached: a periodic "growth" timer re-arms itself, a "loss" event
// fires once and schedules a "retry", and some timers are cancelled.
// Returns the retry's EventID seq chain endpoint via the recorder.
func runWorkload(seed int64, rec *Recorder) *vtime.Sim {
	s := vtime.NewSim(seed)
	if rec != nil {
		rec.AttachCore(s)
		// Exercise the data ring alongside the core ring.
		rec.Conn(KConnOpen, 0, 1)
	}
	s.Run(func() {
		ticks := 0
		var growID vtime.EventID
		growID = s.ScheduleSite(siteTestGrow, 10*time.Millisecond, func() {
			ticks++
			if ticks < 5 {
				s.RearmFiring(10 * time.Millisecond)
			}
			_ = growID
		})
		s.ScheduleSite(siteTestLoss, 25*time.Millisecond, func() {
			// A loss fires: schedule the retry it causes.
			s.ScheduleSite(siteTestRetry, 15*time.Millisecond, func() {})
		})
		victim := s.ScheduleSite(siteTestGrow, time.Hour, func() {})
		s.Cancel(victim)
		if rec != nil {
			rec.AllocPass(int64(s.Elapsed()), 4, 2)
			rec.Conn(KConnRetired, int64(s.Elapsed()), 1)
		}
		s.Sleep(200 * time.Millisecond)
	})
	return s
}

func TestDumpDeterministic(t *testing.T) {
	var dumps [2][]byte
	for i := range dumps {
		rec := New(0, 0)
		runWorkload(42, rec)
		dumps[i] = rec.Dump()
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Fatalf("equal-seed flight dumps differ:\n--- run 0 ---\n%s\n--- run 1 ---\n%s",
			dumps[0][:min(len(dumps[0]), 2000)], dumps[1][:min(len(dumps[1]), 2000)])
	}
	if len(dumps[0]) == 0 {
		t.Fatal("dump is empty")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestInstrumentedMatchesBare verifies the recorder is a pure observer:
// attaching it must not move a single event. Core stats (event counts,
// final virtual time) must be identical with and without the tap.
func TestInstrumentedMatchesBare(t *testing.T) {
	bare := runWorkload(7, nil)
	rec := New(0, 0)
	inst := runWorkload(7, rec)
	b, i := bare.CoreStats(), inst.CoreStats()
	if b.Now != i.Now || b.Scheduled != i.Scheduled || b.Fired != i.Fired ||
		b.Cancelled != i.Cancelled || b.Rearmed != i.Rearmed {
		t.Fatalf("instrumented run diverged from bare run:\nbare: %+v\ninst: %+v", b, i)
	}
}

func TestParseDumpRoundTrip(t *testing.T) {
	rec := New(0, 0)
	runWorkload(3, rec)
	want := rec.Records()
	got, err := ParseDump(bytes.NewReader(rec.Dump()))
	if err != nil {
		t.Fatalf("ParseDump: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip lost records: got %d want %d", len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("record %d mismatch:\ngot  %+v\nwant %+v", k, got[k], want[k])
		}
	}
	// Foreign and blank lines are skipped, malformed flight lines error.
	mixed := "\n{\"event\":\"other.jsonl\"}\n" + string(rec.Dump())
	got2, err := ParseDump(strings.NewReader(mixed))
	if err != nil || len(got2) != len(want) {
		t.Fatalf("mixed-stream parse: err=%v n=%d want %d", err, len(got2), len(want))
	}
	if _, err := ParseDump(strings.NewReader(`{"t":bogus,"kind":"fire","seq":1}`)); err == nil {
		t.Fatal("malformed record parsed without error")
	}
}

// TestChainOf reproduces the tentpole walk: the retry's firing walks
// back through the loss event that scheduled it.
func TestChainOf(t *testing.T) {
	rec := New(0, 0)
	runWorkload(9, rec)
	recs := rec.Records()
	retry, ok := LastBySite(recs, "flighttest.retry")
	if !ok {
		t.Fatal("no retry fire retained")
	}
	chain := ChainOf(recs, retry.Seq)
	if len(chain) < 2 {
		t.Fatalf("chain too short: %d records\n%s", len(chain), FormatChain(chain))
	}
	// Root-cause first: the loss event precedes the retry it caused.
	var sawLoss bool
	for _, r := range chain[:len(chain)-1] {
		if vtime.SiteName(r.Site) == "flighttest.loss" {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatalf("loss event missing from retry chain:\n%s", FormatChain(chain))
	}
	last := chain[len(chain)-1]
	if last.Seq != retry.Seq {
		t.Fatalf("chain does not end at the queried event: got seq %d want %d", last.Seq, retry.Seq)
	}
	out := FormatChain(chain)
	if !strings.Contains(out, "flighttest.retry") || !strings.Contains(out, "└─") {
		t.Fatalf("FormatChain output malformed:\n%s", out)
	}
	if ChainOf(recs, 1<<60) != nil {
		t.Error("ChainOf on an absent seq should return nil")
	}
}

// TestRearmChain verifies RearmFiring links each firing to the previous
// one, so a periodic timer's history is walkable.
func TestRearmChain(t *testing.T) {
	rec := New(0, 0)
	runWorkload(11, rec)
	recs := rec.Records()
	// Last growth firing chains back through the rearm lineage.
	grow, ok := LastBySite(recs, "flighttest.grow")
	if !ok {
		t.Fatal("no growth fire retained")
	}
	chain := ChainOf(recs, grow.Seq)
	hops := 0
	for _, r := range chain {
		if r.Kind == KFire && vtime.SiteName(r.Site) == "flighttest.grow" {
			hops++
		}
	}
	if hops < 4 {
		t.Fatalf("periodic rearm lineage not walkable: %d grow firings in chain\n%s",
			hops, FormatChain(chain))
	}
	// The rearm records themselves are retained alongside the fires.
	rearms := 0
	for _, r := range recs {
		if r.Kind == KRearm && vtime.SiteName(r.Site) == "flighttest.grow" {
			rearms++
		}
	}
	if rearms < 3 {
		t.Fatalf("expected >=3 retained rearm records, got %d", rearms)
	}
}

func TestRingWrap(t *testing.T) {
	rec := New(8, 4)
	for i := 0; i < 20; i++ {
		rec.CoreRing().Put(vtime.CoreFire, int64(i), 0, uint64(i), 0, 0)
		rec.Conn(KConnOpen, int64(i), int64(i))
	}
	st := rec.Stats()
	if st.CoreWritten != 20 || st.CoreRetained != 8 || st.DataWritten != 20 || st.DataRetained != 4 {
		t.Fatalf("stats after wrap: %+v", st)
	}
	recs := rec.Records()
	if len(recs) != 12 {
		t.Fatalf("retained %d records, want 12", len(recs))
	}
	// Oldest retained core record is seq 12 (20 written, cap 8).
	if recs[0].Seq != 12 {
		t.Fatalf("oldest retained core seq = %d, want 12", recs[0].Seq)
	}
}

func TestMergeOrder(t *testing.T) {
	rec := New(8, 8)
	rec.Conn(KConnRetired, 50, 4) // rings are written in virtual-time order
	rec.CoreRing().Put(vtime.CoreFire, 100, 0, 1, 0, 0)
	rec.Conn(KConnOpen, 100, 5) // same instant as the fire: core first
	recs := rec.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Kind != KConnRetired || recs[1].Kind != KFire || recs[2].Kind != KConnOpen {
		t.Fatalf("merge order wrong: %v %v %v", recs[0].Kind, recs[1].Kind, recs[2].Kind)
	}
}

func TestDumpToFile(t *testing.T) {
	rec := New(0, 0)
	runWorkload(5, rec)
	path := t.TempDir() + "/sub/flight.jsonl"
	n, err := rec.DumpToFile(path)
	if err != nil || n == 0 {
		t.Fatalf("DumpToFile: n=%d err=%v", n, err)
	}
	recs2, err := func() ([]Record, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ParseDump(f)
	}()
	if err != nil || len(recs2) != n {
		t.Fatalf("reparse: n=%d err=%v want %d", len(recs2), err, n)
	}
}

func TestVitalsRender(t *testing.T) {
	rec := New(0, 0)
	s := runWorkload(13, rec)
	v := Vitals{Core: s.CoreStats(), Rec: rec.Stats(), CSRHits: 3, CSRLookups: 4}
	if got := v.CSRHitRate(); got != 0.75 {
		t.Fatalf("CSRHitRate = %v, want 0.75", got)
	}
	if (Vitals{}).CSRHitRate() != 0 {
		t.Fatal("empty CSRHitRate should be 0")
	}
	out := v.Render()
	for _, want := range []string{"CORE VITALS", "heap", "arena", "csr-cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("vitals panel missing %q:\n%s", want, out)
		}
	}
	sites := RenderSites(rec.Records())
	if !strings.Contains(sites, "flighttest.grow") {
		t.Errorf("site table missing workload site:\n%s", sites)
	}
	if RenderSites(nil) != "(no records)\n" {
		t.Error("empty site table not handled")
	}
}

func TestWallReport(t *testing.T) {
	rec := New(0, 0)
	s := vtime.NewSim(1)
	rec.AttachCore(s)
	if WallReport(s) != "" {
		t.Fatal("WallReport with profiling off should be empty")
	}
	s.EnableWallProfile()
	s.Run(func() {
		for i := 0; i < 200; i++ {
			s.ScheduleSite(siteTestGrow, time.Millisecond, func() {
				x := 0
				for j := 0; j < 1000; j++ {
					x += j
				}
				_ = x
			})
			s.Sleep(2 * time.Millisecond)
		}
	})
	out := WallReport(s)
	if !strings.Contains(out, "WALL PROFILE") {
		t.Fatalf("wall report malformed:\n%s", out)
	}
	if prof := s.WallProfile(); prof == nil {
		t.Fatal("WallProfile nil after enable")
	}
}

// TestRecordPathAllocFree pins the tentpole's zero-allocation claim:
// with the recorder attached, the schedule/cancel and sleep hot paths
// — now tap-instrumented — must still not allocate, and neither must a
// direct data-ring record.
func TestRecordPathAllocFree(t *testing.T) {
	rec := New(0, 0)
	s := vtime.NewSim(1)
	rec.AttachCore(s)
	fn := func() {}
	s.Run(func() {
		s.Cancel(s.ScheduleSite(siteTestGrow, time.Hour, fn)) // warm arena
		allocs := testing.AllocsPerRun(1000, func() {
			id := s.ScheduleSite(siteTestGrow, time.Hour, fn)
			s.Cancel(id)
		})
		if allocs > 0 {
			t.Errorf("recorded Schedule+Cancel allocates %.1f objects per call, want 0", allocs)
		}
		s.Sleep(time.Millisecond) // warm parker
		allocs = testing.AllocsPerRun(1000, func() {
			s.Sleep(time.Microsecond)
		})
		if allocs > 0 {
			t.Errorf("recorded Sleep allocates %.1f objects per call, want 0", allocs)
		}
	})
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Conn(KConnOpen, 1, 2)
		rec.AllocPass(1, 3, 4)
	})
	if allocs > 0 {
		t.Errorf("data-ring record allocates %.1f objects per call, want 0", allocs)
	}
}

// TestKindNames pins the dump vocabulary: renames would silently break
// dump consumers and the S15 case study.
func TestKindNames(t *testing.T) {
	want := map[Kind]string{
		KSchedule: "schedule", KFire: "fire", KCancel: "cancel", KRearm: "rearm",
		KConnOpen: "conn-open", KConnRetired: "conn-retired",
		KConnReset: "conn-reset", KAllocPass: "alloc-pass",
	}
	for k, name := range want {
		if KindName(k) != name {
			t.Errorf("KindName(%d) = %q, want %q", k, KindName(k), name)
		}
		if kindByName(name) != k {
			t.Errorf("kindByName(%q) = %d, want %d", name, kindByName(name), k)
		}
	}
	if KindName(Kind(200)) != "?" {
		t.Error("unknown kind should render as ?")
	}
}
