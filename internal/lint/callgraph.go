package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Interprocedural machinery for vtblock: the per-package function
// table, the blocking seed set, and the rules for attributing a func
// literal's behavior to its enclosing declaration.

// funcDecl pairs one declared function with its types object.
type funcDecl struct {
	fn   *types.Func
	decl *ast.FuncDecl
}

// packageFuncs returns the package's declared functions with bodies, in
// file/position order — the canonical iteration order the may-block
// fixpoint follows.
func packageFuncs(pass *Pass) []funcDecl {
	var out []funcDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			out = append(out, funcDecl{fn: fn, decl: fd})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].decl.Pos() < out[j].decl.Pos() })
	return out
}

// isTransportPath matches the transport package and its fixture twin.
func isTransportPath(path string) bool {
	return path == "internal/transport" || strings.HasSuffix(path, "/internal/transport")
}

// blockSeedNames are the internal/vtime functions and interface methods
// that suspend the calling goroutine on virtual time. They are seeded
// by name rather than discovered because the interface methods
// (Clock.Sleep, Cond.Wait) have no bodies to analyze, and the Sim
// methods below them block through runtime primitives (channel
// receives) the call-graph walk attributes to internal/vtime anyway.
var blockSeedNames = map[string]bool{
	"Sleep":       true, // Clock.Sleep, Sim.Sleep
	"SleepSite":   true, // Sim.SleepSite
	"park":        true, // Sim.park — every cond/timer wait funnels through it
	"Run":         true, // Sim.Run joins managed goroutines
	"Wait":        true, // Cond.Wait, WaitGroup.Wait
	"WaitTimeout": true,
}

// blockSeed reports whether calling fn may directly block on virtual
// time, with a short reason for diagnostics. Roots: the vtime blocking
// primitives and transport's length-prefixed frame reads (which park on
// simnet conn reads through an io.Reader the call graph cannot see
// through).
func blockSeed(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	if isVtimePath(path) && blockSeedNames[fn.Name()] {
		return "vtime." + recvPrefix(fn) + fn.Name(), true
	}
	if isTransportPath(path) && (fn.Name() == "ReadFrame" || fn.Name() == "ReadJSON") {
		return "transport." + fn.Name(), true
	}
	return "", false
}

// condWaitExempt reports whether fn is Cond.Wait/WaitTimeout (interface
// or chanCond implementation): the one blocking call that is legal with
// its own lock held, because the condition variable releases the locker
// before suspending and relocks before returning.
func condWaitExempt(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !isVtimePath(fn.Pkg().Path()) {
		return false
	}
	if fn.Name() != "Wait" && fn.Name() != "WaitTimeout" {
		return false
	}
	recv := recvTypeName(fn)
	return recv == "Cond" || recv == "chanCond"
}

// recvTypeName returns the name of fn's receiver type ("" for
// package-level functions), with any pointer indirection stripped.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "" // unnamed interface receiver
}

func recvPrefix(fn *types.Func) string {
	if n := recvTypeName(fn); n != "" {
		return n + "."
	}
	return ""
}

// detachedLit reports whether lit's body runs outside the enclosing
// function's own control flow, so its behavior must not be attributed
// to the encloser: a literal passed as an argument to a call (a
// callback — Clock.Go, Sim.Schedule, AfterFunc, sort.Slice — whose
// execution context is the callee's business). Immediately invoked
// literals, including deferred ones, stay attributed. (Literals under
// go statements never reach this check: inspectAttributed skips go
// subtrees wholesale.)
func detachedLit(lit *ast.FuncLit, parent ast.Node) bool {
	if p, ok := parent.(*ast.CallExpr); ok {
		// Immediately invoked: func(){...}() — the literal is the callee.
		if ast.Unparen(p.Fun) == ast.Expr(lit) {
			return false
		}
		// Passed as an argument: a callback.
		for _, arg := range p.Args {
			if ast.Unparen(arg) == ast.Expr(lit) {
				return true
			}
		}
	}
	return false
}

// inspectAttributed walks body like ast.Inspect, restricted to code
// that runs on the enclosing function's own goroutine: go-statement
// subtrees and func literals detached per detachedLit are skipped.
func inspectAttributed(body ast.Node, visit func(n ast.Node) bool) {
	var parents []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			parents = parents[:len(parents)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok && len(parents) > 0 {
			if detachedLit(lit, parents[len(parents)-1]) {
				return false
			}
		}
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		parents = append(parents, n)
		if !visit(n) {
			parents = parents[:len(parents)-1]
			return false
		}
		return true
	})
}
