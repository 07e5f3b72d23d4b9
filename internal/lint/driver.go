package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// All is the esglint analyzer suite, in reporting order: the four
// per-file analyzers, then the two whole-program ones. The "esglint"
// annotation audit and the "staleescape" dead-escape audit run inside
// the driver and are not listed.
var All = []*Analyzer{
	VTimeClock, SeededRand, EmitKV, MapRange,
	VTBlock, ManagedGo,
}

// relName shortens name to be relative to absDir when it is inside it.
func relName(absDir, name string) string {
	if rel, err := filepath.Rel(absDir, name); err == nil && filepath.IsLocal(rel) {
		return rel
	}
	return name
}

// findings loads the packages matched by patterns (relative to dir),
// runs the analyzers over every non-test file as one program, and
// returns the diagnostics, file names relative to dir, in
// AnalyzeProgram's order, along with the packages they came from.
func findings(dir string, patterns []string, analyzers []*Analyzer) ([]JSONFinding, []*Package, error) {
	pkgs, err := LoadPackages(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	diags, err := AnalyzeProgram(pkgs, analyzers)
	if err != nil {
		return nil, nil, err
	}
	absDir, _ := filepath.Abs(dir)
	out := make([]JSONFinding, 0, len(diags)) // never nil: the JSON report renders "no findings" as []
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		out = append(out, JSONFinding{
			File:     relName(absDir, pos.Filename),
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out, pkgs, nil
}

// Run writes one "path:line:col: message (analyzer)" line per finding
// (see findings) to w in deterministic (file, line, column, analyzer)
// order. It returns the number of findings; a load or type-check
// failure is an error.
func Run(dir string, patterns []string, analyzers []*Analyzer, w io.Writer) (int, error) {
	fs, _, err := findings(dir, patterns, analyzers)
	for _, f := range fs {
		fmt.Fprintf(w, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
	}
	return len(fs), err
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
	fs, pkgs, err := findings(dir, patterns, analyzers)
	if err != nil {
		return 0, err
	}
	report := JSONReport{
		Findings: fs,
		Counts:   map[string]int{},
		Escapes:  map[string]int{},
	}
	for _, f := range fs {
		report.Counts[f.Analyzer]++
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
	return len(fs), enc.Encode(report)
}
