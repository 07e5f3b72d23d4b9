package lint

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// renderDiags formats diagnostics exactly as the text driver would, so
// two runs can be compared byte for byte.
func renderDiags(pkgs []*Package, t *testing.T) string {
	diags, err := AnalyzeProgram(pkgs, All)
	if err != nil {
		t.Fatalf("AnalyzeProgram: %v", err)
	}
	var b strings.Builder
	fset := pkgs[0].Fset
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(&b, "%s:%d:%d: %s (%s)\n", pos.Filename, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
	return b.String()
}

// TestFactPropagationOrderIndependent is the determinism property the
// may-block map promises: diagnostics are a pure function of the source
// tree, independent of the order packages arrive in. The driver
// canonicalizes via topoSortPackages, so every permutation of the load
// order must produce byte-identical output.
func TestFactPropagationOrderIndependent(t *testing.T) {
	pkgs, err := LoadPackages("testdata/mod", "./...")
	if err != nil {
		t.Fatalf("LoadPackages: %v", err)
	}
	if len(pkgs) < 3 {
		t.Fatalf("fixture module loaded only %d packages; permutations would prove nothing", len(pkgs))
	}

	base := renderDiags(pkgs, t)
	if base == "" {
		t.Fatal("fixture module produced no diagnostics; the property would hold vacuously")
	}

	perm := make([]*Package, len(pkgs))

	// Reversal plus every rotation covers the dependency-before-dependent
	// and dependent-before-dependency arrival orders.
	copy(perm, pkgs)
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	if got := renderDiags(perm, t); got != base {
		t.Errorf("reversed load order changed diagnostics:\n--- canonical ---\n%s--- reversed ---\n%s", base, got)
	}
	for r := 1; r < len(pkgs); r++ {
		copy(perm, pkgs[r:])
		copy(perm[len(pkgs)-r:], pkgs[:r])
		if got := renderDiags(perm, t); got != base {
			t.Fatalf("rotation by %d changed diagnostics:\n--- canonical ---\n%s--- rotated ---\n%s", r, base, got)
		}
	}

	// Seeded shuffles for arbitrary interleavings.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		copy(perm, pkgs)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := renderDiags(perm, t); got != base {
			t.Fatalf("shuffled load order (trial %d) changed diagnostics:\n--- canonical ---\n%s--- shuffled ---\n%s", trial, base, got)
		}
	}
}

// TestTopoSortPackages pins the canonical order directly: dependencies
// before dependents, lexicographic among the unconstrained.
func TestTopoSortPackages(t *testing.T) {
	pkgs, err := LoadPackages("testdata/mod", "./...")
	if err != nil {
		t.Fatalf("LoadPackages: %v", err)
	}
	index := func(ordered []*Package, path string) int {
		for i, p := range ordered {
			if p.Path == path {
				return i
			}
		}
		t.Fatalf("package %s missing from topo order", path)
		return -1
	}

	ordered := topoSortPackages(pkgs)
	if len(ordered) != len(pkgs) {
		t.Fatalf("topo sort returned %d packages, want %d", len(ordered), len(pkgs))
	}
	// held imports lintmod/internal/vtime: the dependency must come first.
	if index(ordered, "lintmod/internal/vtime") > index(ordered, "lintmod/held") {
		t.Errorf("dependency ordered after dependent: %v", paths(ordered))
	}

	// The canonical order must not depend on input order.
	rev := make([]*Package, len(pkgs))
	for i, p := range pkgs {
		rev[len(pkgs)-1-i] = p
	}
	reordered := topoSortPackages(rev)
	for i := range ordered {
		if ordered[i].Path != reordered[i].Path {
			t.Fatalf("topo order depends on input order:\n%v\n%v", paths(ordered), paths(reordered))
		}
	}
}

func paths(pkgs []*Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.Path)
	}
	return out
}
