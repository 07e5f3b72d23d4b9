package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// An annotation is one //esglint:<name> <reason> comment.
type annotation struct {
	Name   string
	Reason string
	Pos    token.Pos
	File   string
	Line   int
}

const annotationPrefix = "//esglint:"

// collectAnnotations scans every comment in files for esglint escape
// annotations, keyed by (filename, line).
func collectAnnotations(fset *token.FileSet, files []*ast.File) map[string]map[int]annotation {
	out := map[string]map[int]annotation{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, annotationPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, annotationPrefix)
				// Fixture files pair annotations with analysistest
				// want-comments in the same comment text; those are
				// never part of the reason.
				rest, _, _ = strings.Cut(rest, "// want")
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int]annotation{}
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = annotation{
					Name:   name,
					Reason: strings.TrimSpace(reason),
					Pos:    c.Pos(),
					File:   pos.Filename,
					Line:   pos.Line,
				}
			}
		}
	}
	return out
}

// annKey identifies one annotation site for used-escape tracking.
type annKey struct {
	file string
	line int
}

// suppress drops diagnostics whose analyzer's escape annotation (with a
// non-empty reason) sits on the flagged line or the line directly
// above, recording each load-bearing annotation in used.
func suppress(fset *token.FileSet, diags []Diagnostic, analyzers []*Analyzer, anns map[string]map[int]annotation, used map[annKey]bool) []Diagnostic {
	escapes := map[string]string{} // analyzer name -> escape name
	for _, a := range analyzers {
		if a.Escape != "" {
			escapes[a.Name] = a.Escape
		}
	}
	var out []Diagnostic
	for _, d := range diags {
		esc, ok := escapes[d.Analyzer]
		if !ok {
			out = append(out, d)
			continue
		}
		pos := fset.Position(d.Pos)
		byLine := anns[pos.Filename]
		suppressed := false
		for _, line := range []int{pos.Line, pos.Line - 1} {
			if a, ok := byLine[line]; ok && a.Name == esc && a.Reason != "" {
				suppressed = true
				if used != nil {
					used[annKey{a.File, a.Line}] = true
				}
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// auditAnnotations reports escapes that carry no reason and annotations
// that name no escape in the whole suite's registry. Unknown-name
// detection consults All rather than the current selection, so an
// `-only managedgo` run does not misreport every wallclock escape in
// the tree; reasons are only policed for escapes whose analyzer is
// actually running (the rest are out of the run's scope).
func auditAnnotations(anns map[string]map[int]annotation, analyzers []*Analyzer) []Diagnostic {
	registry := map[string]bool{}
	for _, a := range All {
		if a.Escape != "" {
			registry[a.Escape] = true
		}
	}
	running := map[string]bool{}
	for _, a := range analyzers {
		if a.Escape != "" {
			running[a.Escape] = true
		}
	}
	var out []Diagnostic
	for _, byLine := range anns {
		for _, a := range byLine {
			switch {
			case !registry[a.Name]:
				out = append(out, Diagnostic{
					Pos:      a.Pos,
					Analyzer: "esglint",
					Message:  "unknown esglint annotation esglint:" + a.Name,
				})
			case running[a.Name] && a.Reason == "":
				out = append(out, Diagnostic{
					Pos:      a.Pos,
					Analyzer: "esglint",
					Message:  "esglint:" + a.Name + " annotation requires a reason",
				})
			}
		}
	}
	return out
}

// staleEscapes is the dead-escape audit (pseudo-analyzer
// "staleescape"): a well-formed escape annotation that suppressed no
// diagnostic of its analyzer no longer documents a live exception and
// must be deleted (or the regression it papered over re-examined).
// Escapes are only audited when their owning analyzer ran over the
// package and does not exempt it, so `-only` runs and documentation
// escapes inside exempt packages (wallclock inside internal/vtime) stay
// quiet.
func staleEscapes(pkgPath string, anns map[string]map[int]annotation, analyzers []*Analyzer, used map[annKey]bool) []Diagnostic {
	owners := map[string]*Analyzer{} // escape name -> owning analyzer in this run
	for _, a := range analyzers {
		if a.Escape != "" {
			owners[a.Escape] = a
		}
	}
	var out []Diagnostic
	for _, byLine := range anns {
		for _, a := range byLine {
			owner, known := owners[a.Name]
			if !known || a.Reason == "" {
				continue // auditAnnotations' problem, not staleness
			}
			if owner.Exempt != nil && owner.Exempt(pkgPath) {
				continue
			}
			if used[annKey{a.File, a.Line}] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      a.Pos,
				Analyzer: StaleEscapeAnalyzer,
				Message:  "esglint:" + a.Name + " escape suppresses nothing; delete it or re-justify the exception",
			})
		}
	}
	return out
}
