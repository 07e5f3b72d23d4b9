package lint

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// TestDriverCatchesInjectedViolations runs the full suite over the
// fixture module at testdata/mod, which deliberately violates each
// invariant once: a wall-clock read, a global rand.Intn, an odd-arity
// Emit, an unsorted map-range on an ordered-output path, a lock held
// across a virtual-time block, a bare goroutine spawn, and a dead
// escape. Each must be caught and attributed by analyzer name. (The
// module's copied mutex is go vet's to catch: TestVetCatchesCopiedLock.)
func TestDriverCatchesInjectedViolations(t *testing.T) {
	var buf bytes.Buffer
	n, err := Run("testdata/mod", nil, All, &buf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := buf.String()
	t.Logf("driver output:\n%s", out)

	wants := []struct{ site, analyzer string }{
		{"clocks/clocks.go", "(vtimeclock)"},
		{"clocks/clocks.go", "(seededrand)"},
		{"internal/monitor/fold.go", "(emitkv)"},
		{"internal/monitor/fold.go", "(maprange)"},
		{"held/held.go", "(vtblock)"},
		{"held/held.go", "(managedgo)"},
		{"held/held.go", "(staleescape)"},
		// The reasonless escape in clocks.go is itself a finding.
		{"clocks/clocks.go", "(esglint)"},
	}
	for _, w := range wants {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, w.site) && strings.Contains(line, w.analyzer) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s finding reported in %s", w.analyzer, w.site)
		}
	}

	// WallClock and MissingReason are unsuppressed (2 vtimeclock), plus
	// seededrand, emitkv, maprange, vtblock, managedgo, staleescape, and
	// the esglint annotation audit: 9 findings. Annotated() must stay
	// suppressed, and the fixture vtime twin (wall sleep, bare go) must
	// stay exempt.
	if n != 9 {
		t.Errorf("Run reported %d findings, want 9", n)
	}
	if strings.Contains(out, "clean/clean.go") {
		t.Errorf("clean package was flagged:\n%s", out)
	}
	if strings.Contains(out, "internal/vtime/vt.go") {
		t.Errorf("vtime twin was flagged despite exemptions:\n%s", out)
	}
	if strings.Contains(out, "clocks.go:15") {
		t.Errorf("escape with reason was not suppressed:\n%s", out)
	}
}

// TestVetCatchesCopiedLock pins "locks are never copied" on the tool
// that enforces it: `go vet` (make vet) with its copylocks pass must
// reject the fixture module's injected copy.
func TestVetCatchesCopiedLock(t *testing.T) {
	cmd := exec.Command("go", "vet", "-copylocks", "./locks")
	cmd.Dir = "testdata/mod"
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -copylocks accepted the injected lock copy:\n%s", out)
	}
	if !strings.Contains(string(out), "locks/locks.go") || !strings.Contains(string(out), "copies lock value") {
		t.Errorf("go vet failed without reporting the copy in locks/locks.go: %v\n%s", err, out)
	}
}

func TestDriverExplicitPatterns(t *testing.T) {
	var buf bytes.Buffer
	n, err := Run("testdata/mod", []string{"./clean"}, All, &buf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 0 {
		t.Errorf("clean package produced %d findings:\n%s", n, buf.String())
	}
}

func TestDriverSubsetOfAnalyzers(t *testing.T) {
	var buf bytes.Buffer
	n, err := Run("testdata/mod", []string{"./locks"}, []*Analyzer{VTimeClock}, &buf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 0 {
		t.Errorf("vtimeclock alone flagged the locks package:\n%s", buf.String())
	}
}

func TestDriverBadPattern(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run("testdata/mod", []string{"./no/such/dir/..."}, All, &buf); err == nil {
		t.Fatal("Run succeeded on a nonexistent pattern")
	}
}

func TestLoadPackagesTypeError(t *testing.T) {
	if _, err := loadTestdataProgram("testdata", "no-such-fixture"); err == nil {
		t.Fatal("loadTestdataProgram succeeded on a missing fixture package")
	}
}

// TestRunJSON pins the machine-readable report: deterministic across
// runs, findings sorted, per-analyzer counts consistent with the text
// driver, and the escape inventory counting well-formed escapes.
func TestRunJSON(t *testing.T) {
	var buf1, buf2 bytes.Buffer
	n1, err := RunJSON("testdata/mod", nil, All, &buf1)
	if err != nil {
		t.Fatalf("RunJSON: %v", err)
	}
	if _, err := RunJSON("testdata/mod", nil, All, &buf2); err != nil {
		t.Fatalf("RunJSON (second): %v", err)
	}
	if buf1.String() != buf2.String() {
		t.Errorf("RunJSON output differs between runs:\n%s\n---\n%s", buf1.String(), buf2.String())
	}

	var report JSONReport
	if err := json.Unmarshal(buf1.Bytes(), &report); err != nil {
		t.Fatalf("decoding report: %v", err)
	}
	if len(report.Findings) != n1 {
		t.Errorf("report has %d findings, Run returned %d", len(report.Findings), n1)
	}
	total := 0
	for _, c := range report.Counts {
		total += c
	}
	if total != n1 {
		t.Errorf("per-analyzer counts sum to %d, want %d", total, n1)
	}
	if !sort.SliceIsSorted(report.Findings, func(i, j int) bool {
		a, b := report.Findings[i], report.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	}) {
		t.Errorf("findings are not sorted: %+v", report.Findings)
	}
	// clocks.go carries one well-formed wallclock escape (Annotated);
	// the reasonless one must not be inventoried.
	if report.Escapes["wallclock"] != 1 {
		t.Errorf("escape inventory: wallclock = %d, want 1 (got %v)", report.Escapes["wallclock"], report.Escapes)
	}
	for _, f := range report.Findings {
		if f.Analyzer == "vtblock" && !strings.Contains(f.Message, "may block on virtual time") {
			t.Errorf("vtblock finding lost its message: %+v", f)
		}
	}
}
