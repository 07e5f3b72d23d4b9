package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapRange flags `for … range` over a map in the packages that fold
// state into ordered output — the netlogger export surfaces, the
// monitor's snapshot/alert plane, the mds directory records — and in
// every package whose stdout is user output: the commands, the examples
// and the root esgrid package. Map iteration order is deliberately
// randomized by the runtime, so an unsorted fold on one of these paths
// is exactly the class of latent determinism bug the PR 4
// canonical-export fix addressed.
//
// A range over maps.Keys, maps.Values or maps.All walks in the same
// hash order, so it is flagged too. The one shape that passes without
// annotation is `for range m` with no iteration variables (pure
// counting). Anything else ranges over slices.Sorted(maps.Keys(m))
// instead, or carries an //esglint:unordered <reason> annotation
// stating why order cannot leak.
var MapRange = &Analyzer{
	Name:   "maprange",
	Doc:    "flag unsorted map iteration in ordered-output packages",
	Escape: "unordered",
	Run:    runMapRange,
}

// orderedPathSuffixes selects the packages whose output ordering is part
// of the determinism contract (DESIGN.md §10).
var orderedPathSuffixes = []string{
	"internal/netlogger",
	"internal/monitor",
	"internal/mds",
	"internal/flight",
	"internal/telemetry",
	"esgrid",
}

// orderedPathPrefixes selects whole trees of them: every command and
// every example prints to a user.
var orderedPathPrefixes = []string{"esgrid/cmd/", "esgrid/examples/"}

// orderedPath reports whether the package at path is in the analyzer's
// scope.
func orderedPath(path string) bool {
	for _, suf := range orderedPathSuffixes {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	for _, pre := range orderedPathPrefixes {
		if strings.HasPrefix(path, pre) {
			return true
		}
	}
	return false
}

func runMapRange(pass *Pass) error {
	if !orderedPath(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !walksMapOrder(pass, rs.X) {
				return true
			}
			if isBlankIdent(rs.Key) && isBlankIdent(rs.Value) {
				return true // pure counting; order cannot leak
			}
			pass.Reportf(rs.Pos(),
				"range over map in ordered-output package %s; range over slices.Sorted(maps.Keys(m)) or annotate //esglint:unordered <reason>",
				pass.Path)
			return true
		})
	}
	return nil
}

// mapIters are the maps-package iterators that yield in the map's own
// hash order.
var mapIters = map[string]bool{"Keys": true, "Values": true, "All": true}

// walksMapOrder reports whether ranging over x visits a map in hash
// order: x is a map, or a maps.Keys, maps.Values or maps.All call.
func walksMapOrder(pass *Pass, x ast.Expr) bool {
	if call, ok := ast.Unparen(x).(*ast.CallExpr); ok {
		fn := calleeFunc(pass, call)
		return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "maps" && mapIters[fn.Name()]
	}
	tv, ok := pass.Info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isBlankIdent reports whether e is absent or the blank identifier.
func isBlankIdent(e ast.Expr) bool {
	if e == nil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
