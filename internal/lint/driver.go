package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// All is the esglint analyzer suite, in reporting order: the five
// per-file analyzers, then the three whole-program ones built on the
// facts layer. The "esglint" annotation audit and the "staleescape"
// dead-escape audit run inside the driver and are not listed.
var All = []*Analyzer{
	VTimeClock, SeededRand, EmitKV, MapRange, MutexCopy,
	VTBlock, ManagedGo, HotPath,
}

// syntaxOnly reports whether every selected analyzer can run on parsed
// source alone, letting the driver skip export loading entirely.
func syntaxOnly(analyzers []*Analyzer) bool {
	for _, a := range analyzers {
		if !a.SyntaxOnly {
			return false
		}
	}
	return len(analyzers) > 0
}

// loadFor loads the packages matched by patterns with the cheapest
// loader the analyzer selection permits: parse-only when every analyzer
// is syntax-level, the full `go list -export` type-checking load
// otherwise.
func loadFor(dir string, patterns []string, analyzers []*Analyzer) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if syntaxOnly(analyzers) {
		return LoadPackagesSyntax(dir, patterns...)
	}
	return LoadPackages(dir, patterns...)
}

// relName shortens name to be relative to absDir when it is inside it.
func relName(absDir, name string) string {
	if rel, err := filepath.Rel(absDir, name); err == nil && filepath.IsLocal(rel) {
		return rel
	}
	return name
}

// Run loads the packages matched by patterns (relative to dir) and runs
// the analyzers over every non-test file as one program, writing one
// "path:line:col: message (analyzer)" line per finding to w in
// deterministic (file, line, column, analyzer) order. It returns the
// number of findings; a load or type-check failure is an error.
func Run(dir string, patterns []string, analyzers []*Analyzer, w io.Writer) (int, error) {
	pkgs, err := loadFor(dir, patterns, analyzers)
	if err != nil {
		return 0, err
	}
	if len(pkgs) == 0 {
		return 0, nil
	}
	diags, err := AnalyzeProgram(pkgs, analyzers)
	if err != nil {
		return 0, err
	}
	absDir, _ := filepath.Abs(dir)
	fset := pkgs[0].Fset
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(w, "%s:%d:%d: %s (%s)\n", relName(absDir, pos.Filename), pos.Line, pos.Column, d.Message, d.Analyzer)
	}
	return len(diags), nil
}

// JSONFinding is one diagnostic in the machine-readable report.
type JSONFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// JSONReport is the `esglint -json` output: findings in deterministic
// (file, line, col, analyzer, message) order, per-analyzer finding
// counts, and the in-force escape inventory (count of well-formed
// //esglint:<name> annotations per escape name) so CI can track both
// how much the gate catches and how much the tree opts out of it.
type JSONReport struct {
	Findings []JSONFinding  `json:"findings"`
	Counts   map[string]int `json:"counts"`
	Escapes  map[string]int `json:"escapes"`
}

// RunJSON is Run with a JSONReport written to w instead of text lines.
// The encoding is deterministic: findings are pre-sorted and Go's JSON
// encoder emits map keys in sorted order.
func RunJSON(dir string, patterns []string, analyzers []*Analyzer, w io.Writer) (int, error) {
	pkgs, err := loadFor(dir, patterns, analyzers)
	if err != nil {
		return 0, err
	}
	report := JSONReport{
		Findings: []JSONFinding{},
		Counts:   map[string]int{},
		Escapes:  map[string]int{},
	}
	var diags []Diagnostic
	if len(pkgs) > 0 {
		if diags, err = AnalyzeProgram(pkgs, analyzers); err != nil {
			return 0, err
		}
	}
	absDir, _ := filepath.Abs(dir)
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		report.Findings = append(report.Findings, JSONFinding{
			File:     relName(absDir, pos.Filename),
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
		report.Counts[d.Analyzer]++
	}
	known := map[string]bool{}
	for _, a := range analyzers {
		if a.Escape != "" {
			known[a.Escape] = true
		}
	}
	for _, pkg := range pkgs {
		for _, byLine := range collectAnnotations(pkg.Fset, pkg.Files) {
			for _, a := range byLine {
				if known[a.Name] && a.Reason != "" {
					report.Escapes[a.Name]++
				}
			}
		}
	}
	// Findings are already globally sorted by AnalyzeProgram; re-assert
	// on the rendered form so the report order never depends on
	// token.Pos internals.
	sort.Slice(report.Findings, func(i, j int) bool {
		a, b := report.Findings[i], report.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return len(diags), err
	}
	return len(diags), nil
}
