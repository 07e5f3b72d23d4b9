package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"esgrid/internal/flight"
	"esgrid/internal/vtime"
)

// TestProvenanceChain is the S15 acceptance check: a chaos-forced RM
// retry must be explained end to end — the chain walks from the
// retry-backoff fire back through the retained core window to an
// upstream network/protocol event, without leaving the experiments
// layer to do it.
func TestProvenanceChain(t *testing.T) {
	res, err := RunProvenance(DefaultProvenanceConfig(), 8)
	if err != nil {
		t.Fatalf("RunProvenance: %v", err)
	}
	if res.Run.Attempts <= res.Config.Files {
		t.Errorf("diagnosed run had no retries: attempts %d for %d files",
			res.Run.Attempts, res.Config.Files)
	}
	if vtime.SiteName(res.Retry.Site) != "rm.retry-backoff" {
		t.Fatalf("retry record at wrong site %q", vtime.SiteName(res.Retry.Site))
	}
	if len(res.Chain) < 2 {
		t.Fatalf("chain too shallow to explain anything: %d hops\n%s", len(res.Chain), res.Chart)
	}
	// The last hop is the retry itself; everything before it is cause.
	last := res.Chain[len(res.Chain)-1]
	if last.Seq != res.Retry.Seq {
		t.Errorf("chain does not end at the retry: seq %d vs %d", last.Seq, res.Retry.Seq)
	}
	sites := res.ChainSites()
	upstream := false
	for _, s := range sites {
		if s != "rm.retry-backoff" {
			upstream = true
		}
	}
	if !upstream {
		t.Errorf("chain never leaves the retry site: %v\n%s", sites, res.Chart)
	}
	for _, want := range []string{"rm.retry-backoff", "seq="} {
		if !strings.Contains(res.Chart, want) {
			t.Errorf("rendered chain missing %q:\n%s", want, res.Chart)
		}
	}
	rows := res.Rows()
	if len(rows) < 5 {
		t.Errorf("summary rows = %d, want >= 5", len(rows))
	}
}

// TestChaosFlightPureObserver proves the recorder cannot perturb the
// simulation: the same seed and schedule run bare (no tap, no simnet
// hook) and instrumented must produce byte-identical NetLogger streams
// and identical timing.
func TestChaosFlightPureObserver(t *testing.T) {
	run := func() (any, error) {
		cfg := soakConfig(92)
		r, err := RunChaosSchedule(cfg, ChaosScheduleFor(cfg, 92, 6))
		return fmt.Sprintf("elapsed %v, %d activations", r.Elapsed, r.Activations), err
	}
	inst, err := capture(run)
	flightDisabled = true
	defer func() { flightDisabled = false }()
	bare, errBare := capture(run)
	if err := errors.Join(err, errBare); err != nil {
		t.Fatal(err)
	}
	same(t, "chaos-pure-observer", runtime.GOMAXPROCS(0), inst, bare, false)
	if inst.core == 0 || bare.core != 0 {
		t.Errorf("core events recorded: %d instrumented, %d bare; want some and none", inst.core, bare.core)
	}
}

// TestFlightDumpOnFailure exercises the CI failure path end to end: a
// red equal-seed pair must land both runs' parseable dumps in
// $ESG_FLIGHT_DIR, under the row's name and P.
func TestFlightDumpOnFailure(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("ESG_FLIGHT_DIR", dir)
	a, err := capture(func() (any, error) { return chaosRow(93, 4) })
	if err != nil {
		t.Fatalf("chaosRow: %v", err)
	}
	dumpPair(t, "exercise-93-4", 2, a, a)
	for _, run := range "ab" {
		dump, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("exercise-93-4-P2-%c.flight.jsonl", run)))
		recs, perr := flight.ParseDump(bytes.NewReader(dump))
		if err := errors.Join(err, perr); err != nil || len(recs) == 0 {
			t.Fatalf("dump %c: %d records, %v", run, len(recs), err)
		}
	}
}
