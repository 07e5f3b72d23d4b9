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
// Two shapes pass without annotation:
//
//   - the gather-then-sort idiom — a loop whose body only appends the
//     range key to a slice, immediately followed by a sort of that
//     slice;
//   - `for range m` with no iteration variables (pure counting).
//
// Anything else needs keys sorted first (range the sorted slice
// instead) or an //esglint:unordered <reason> annotation stating why
// order cannot leak.
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
		// Walk statement lists so each range statement can see its
		// following sibling (the sort call in the gather idiom).
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			default:
				return true
			}
			for i, stmt := range list {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				tv, ok := pass.Info.Types[rs.X]
				if !ok || tv.Type == nil {
					continue
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					continue
				}
				if isBlankIdent(rs.Key) && isBlankIdent(rs.Value) {
					continue // pure counting; order cannot leak
				}
				var next ast.Stmt
				if i+1 < len(list) {
					next = list[i+1]
				}
				if isGatherThenSort(pass, rs, next) {
					continue
				}
				pass.Reportf(rs.Pos(),
					"range over map in ordered-output package %s; sort keys first or annotate //esglint:unordered <reason>",
					pass.Path)
			}
			return true
		})
	}
	return nil
}

// isBlankIdent reports whether e is absent or the blank identifier.
func isBlankIdent(e ast.Expr) bool {
	if e == nil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// isGatherThenSort reports whether rs is `for k := range m { s = append(s, k) }`
// immediately followed by a sort of s.
func isGatherThenSort(pass *Pass, rs *ast.RangeStmt, next ast.Stmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if rs.Value != nil {
		if v, ok := rs.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	dst, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return false
	}
	if arg0, ok := call.Args[0].(*ast.Ident); !ok || pass.Info.ObjectOf(arg0) != pass.Info.ObjectOf(dst) {
		return false
	}
	if arg1, ok := call.Args[1].(*ast.Ident); !ok || pass.Info.ObjectOf(arg1) != pass.Info.ObjectOf(key) {
		return false
	}
	return sortsIdent(pass, next, pass.Info.ObjectOf(dst))
}

// sortFuncs are the sort-package and slices-package functions accepted
// as establishing a canonical order over the gathered keys.
var sortFuncs = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortsIdent reports whether stmt is a call like sort.Strings(x) whose
// first argument resolves to obj.
func sortsIdent(pass *Pass, stmt ast.Stmt, obj types.Object) bool {
	if obj == nil {
		return false
	}
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || !sortFuncs[fn.Pkg().Path()+"."+fn.Name()] {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pass.Info.ObjectOf(arg) == obj
}
