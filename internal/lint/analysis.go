// Package lint is esglint: a suite of static analyzers that enforce the
// repo's determinism and virtual-time invariants at vet time instead of
// by convention. Every headline result — byte-identical equal-seed JSONL
// exports, replay-seed chaos soaks, life-line traces on the virtual
// clock — rests on invariants in two tiers.
//
// Per-file (syntax and types, one package at a time):
//
//  1. simulated paths read only the virtual clock (vtimeclock),
//  2. randomness is explicitly seeded and threaded from config
//     (seededrand),
//  3. anything folded into the emitted event stream is canonically
//     ordered (maprange) and structurally well-formed (emitkv).
//
// Whole-program (interprocedural):
//
//  4. no lock is held across a call that may block on virtual time
//     (vtblock; may-block knowledge crosses packages through
//     Pass.mayBlock, see facts.go),
//  5. every goroutine is a managed one Sim.Run can join (managedgo).
//
// Two invariants the suite once checked itself are enforced elsewhere:
// "locks are never copied" by go vet's copylocks (make vet), and
// "allocation-free hot paths" by the AllocsPerRun tests that pin each
// such function at 0 allocs/op (DESIGN.md §10 has the audit).
//
// The analyzers are written against a small in-repo kernel whose API
// deliberately mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic, analysistest-style want comments); the repo's stdlib-only
// constraint is kept intact (see DESIGN.md §10).
//
// Escape hatch: a comment of the form
//
//	//esglint:<name> <reason>
//
// on the flagged line or the line directly above suppresses the analyzer
// whose escape is <name> (e.g. //esglint:wallclock real elapsed time for
// the operator). The reason is mandatory: an escape with no reason does
// not suppress and is itself reported. Escapes that no longer suppress
// anything are reported by the staleescape audit, so the escape
// inventory in the tree always matches the set of live exceptions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string // short lower-case identifier, e.g. "vtimeclock"
	Doc  string // one-paragraph description of what it reports

	// Escape, when non-empty, names the //esglint:<Escape> annotation
	// that suppresses this analyzer's diagnostics on the annotated line
	// (reason required). Empty means the analyzer has no escape hatch.
	Escape string

	// Exempt, when non-nil, reports package paths this analyzer
	// deliberately stays silent in (e.g. vtimeclock inside
	// internal/vtime, the one package allowed to touch the wall clock).
	// The staleescape audit consults it so documentation escapes inside
	// exempt packages are not reported as dead.
	Exempt func(path string) bool

	// Run reports diagnostics on pass via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Path     string // package import path
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
	// mayBlock is the one piece of whole-program state: for every
	// function vtblock has found may suspend on virtual time, the reason.
	// One map is shared by every pass of an AnalyzeProgram run (facts.go).
	mayBlock map[*types.Func]string
}

// Reportf records a diagnostic at pos attributed to the running analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, attributed to the analyzer that made it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// StaleEscapeAnalyzer names the pseudo-analyzer that attributes the
// dead-escape audit's diagnostics; like the "esglint" annotation audit
// it runs inside the driver, not as an entry in All.
const StaleEscapeAnalyzer = "staleescape"

// Analyze runs the given analyzers over a single package. It is the
// single-package form of AnalyzeProgram; may-block knowledge does not
// cross into or out of the call, so vtblock sees only local and seeded
// knowledge. Single-package tests use it.
func Analyze(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return AnalyzeProgram([]*Package{pkg}, analyzers)
}

// AnalyzeProgram runs the analyzers over every package, carrying
// may-block knowledge across package boundaries, and returns the
// surviving diagnostics in (file, line, column, analyzer) order.
//
// Determinism: packages are visited in topologically sorted import
// order with lexicographic tie-breaks, so may-block propagation — and
// with it every diagnostic — is a pure function of the source tree,
// independent of the order pkgs arrived in (the property
// TestFactPropagationOrderIndependent pins).
//
// Beyond the analyzers' own findings the driver reports, from
// pseudo-analyzers:
//
//   - "esglint": escapes with a missing reason, and annotations naming
//     no known escape;
//   - "staleescape": escapes that suppressed no diagnostic of their
//     analyzer anywhere in the program (dead escapes rot the audit
//     trail). Only audited when the owning analyzer actually ran and
//     does not exempt the package.
func AnalyzeProgram(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	ordered := topoSortPackages(pkgs)

	mayBlock := map[*types.Func]string{}
	used := map[annKey]bool{}

	type pkgAnns struct {
		path string
		anns map[string]map[int]annotation
	}
	var allAnns []pkgAnns

	var diags []Diagnostic
	for _, pkg := range ordered {
		anns := collectAnnotations(pkg.Fset, pkg.Files)
		allAnns = append(allAnns, pkgAnns{pkg.Path, anns})

		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &pkgDiags,
				mayBlock: mayBlock,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}

		pkgDiags = suppress(pkg.Fset, pkgDiags, analyzers, anns, used)
		pkgDiags = append(pkgDiags, auditAnnotations(anns, analyzers)...)
		diags = append(diags, pkgDiags...)
	}

	for _, pa := range allAnns {
		diags = append(diags, staleEscapes(pa.path, pa.anns, analyzers, used)...)
	}

	sort.Slice(diags, func(i, j int) bool { return positionLess(fset, diags[i], diags[j]) })
	return diags, nil
}

// isVtimePath matches the real clock package and its fixture twin.
func isVtimePath(path string) bool {
	return path == "internal/vtime" || strings.HasSuffix(path, "/internal/vtime")
}
