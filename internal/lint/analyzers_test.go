package lint

import "testing"

func TestVTimeClock(t *testing.T) {
	RunAnalyzer(t, "testdata", "wallclock", VTimeClock)
}

func TestVTimeClockExemptsVtime(t *testing.T) {
	RunAnalyzer(t, "testdata", "esgrid/internal/vtime", VTimeClock)
}

func TestSeededRand(t *testing.T) {
	RunAnalyzer(t, "testdata", "seeded", SeededRand)
}

func TestEmitKV(t *testing.T) {
	RunAnalyzer(t, "testdata", "emitcalls", EmitKV)
}

func TestEmitKVIgnoresFixtureDefinitions(t *testing.T) {
	// The fake netlogger package itself contains no kv call sites.
	RunAnalyzer(t, "testdata", "esgrid/internal/netlogger", EmitKV)
}

func TestMapRange(t *testing.T) {
	RunAnalyzer(t, "testdata", "esgrid/internal/monitor", MapRange)
}

func TestMapRangeIgnoresUnorderedPackages(t *testing.T) {
	RunAnalyzer(t, "testdata", "plainpkg", MapRange)
}

func TestMapRangeFlight(t *testing.T) {
	// internal/flight joined the ordered-output packages with the flight
	// recorder: its dumps and site tables are equal-seed byte-identical.
	RunAnalyzer(t, "testdata", "esgrid/internal/flight", MapRange)
}

func TestMapRangeExamples(t *testing.T) {
	// Commands, examples and the root package print to a user, so their
	// map iteration is in scope too.
	RunAnalyzer(t, "testdata", "esgrid/examples/listing", MapRange)
}

func TestTelemetryFixture(t *testing.T) {
	// internal/telemetry joined the ordered-output packages in PR 9:
	// grid snapshots and alert streams are equal-seed byte-identical at
	// any tree fanout, so child folds must never iterate in map order.
	// The fixture carries wants for all three analyzers the package is
	// subject to, so they run as one battery.
	pkgs, err := loadTestdataProgram("testdata", "esgrid/internal/telemetry")
	if err != nil {
		t.Fatalf("loading testdata package: %v", err)
	}
	pkg := pkgs[len(pkgs)-1]
	diags, err := Analyze(pkg, []*Analyzer{MapRange, VTimeClock, EmitKV})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, pkg, diags)
}

func TestVTBlock(t *testing.T) {
	// vtheld imports vtdeps imports the vtime twin: the harness analyzes
	// all three as one program, so the cross-package want exercises real
	// may-block propagation.
	RunAnalyzer(t, "testdata", "vtheld", VTBlock)
}

func TestVTBlockExemptsVtime(t *testing.T) {
	// The twin's own bodies are the blocking machinery; may-block entries
	// are computed there but no lock checks run.
	RunAnalyzer(t, "testdata", "esgrid/internal/vtime", VTBlock)
}

func TestManagedGo(t *testing.T) {
	RunAnalyzer(t, "testdata", "spawngo", ManagedGo)
}

func TestManagedGoExemptsVtime(t *testing.T) {
	// Sim.Go and WaitGroup.Go contain the sanctioned bare go statements.
	RunAnalyzer(t, "testdata", "esgrid/internal/vtime", ManagedGo)
}

func TestStaleEscape(t *testing.T) {
	RunAnalyzer(t, "testdata", "stalefix", VTimeClock)
}
