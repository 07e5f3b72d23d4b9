package lint

import (
	"go/token"
	"sort"
)

// Whole-program state is one map: Pass.mayBlock, from function to the
// reason it may suspend the calling goroutine on virtual time. vtblock
// fills it package by package and reads it back when a later package
// calls into an earlier one; every pass of one AnalyzeProgram run
// shares the same map.
//
// Determinism contract: the map must make analyzer output a pure
// function of the source tree. AnalyzeProgram visits packages in
// topologically sorted import order (ties broken by import path), so an
// importer always sees its dependencies' entries fully computed, and
// the same tree produces the same entries regardless of load order —
// see TestFactPropagationOrderIndependent.

// topoSortPackages orders pkgs dependencies-first, ties broken by
// import path, independent of the input order. Only edges between
// packages in the set matter; everything else (stdlib) is already
// compiled export data with nothing to contribute.
func topoSortPackages(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		if _, dup := byPath[p.Path]; dup {
			continue
		}
		byPath[p.Path] = p
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)

	// deps[p] = in-set packages p imports (directly).
	deps := make(map[string][]string, len(paths))
	indeg := make(map[string]int, len(paths))
	for _, path := range paths {
		for _, imp := range byPath[path].Types.Imports() {
			if _, in := byPath[imp.Path()]; in && imp.Path() != path {
				deps[path] = append(deps[path], imp.Path())
				indeg[path]++
			}
		}
	}
	rdeps := map[string][]string{}
	for path, ds := range deps {
		for _, d := range ds {
			rdeps[d] = append(rdeps[d], path)
		}
	}

	var out []*Package
	emitted := map[string]bool{}
	for len(out) < len(paths) {
		// Pick the lexicographically smallest ready package. O(n^2) is
		// fine at repo scale and keeps the order obviously canonical.
		picked := ""
		for _, path := range paths {
			if !emitted[path] && indeg[path] == 0 {
				picked = path
				break
			}
		}
		if picked == "" {
			// Import cycle (impossible in valid Go): fall back to lexical
			// order over the remainder rather than looping forever.
			for _, path := range paths {
				if !emitted[path] {
					emitted[path] = true
					out = append(out, byPath[path])
				}
			}
			break
		}
		emitted[picked] = true
		out = append(out, byPath[picked])
		for _, r := range rdeps[picked] {
			indeg[r]--
		}
	}
	return out
}

// positionLess orders two diagnostics by (file, line, column, analyzer,
// message) under fset.
func positionLess(fset *token.FileSet, a, b Diagnostic) bool {
	pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	if pa.Column != pb.Column {
		return pa.Column < pb.Column
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	return a.Message < b.Message
}
