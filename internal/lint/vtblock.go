package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// VTBlock enforces the first interprocedural leg of the determinism
// contract (DESIGN.md §10): no mutex may be held across a call that may
// block on virtual time. A goroutine that parks while holding a lock
// serializes every other goroutine that needs it behind a virtual-time
// advance — at best a latent deadlock (the advancing goroutine itself
// needs the lock), at worst the PR8 teardown-race class where teardown
// observes state mid-update because the updater is parked under its own
// lock.
//
// The analysis is whole-program. For every function the analyzer
// computes — and records in Pass.mayBlock, so the knowledge crosses
// package boundaries in dependency order — whether it may block: the
// function directly suspends on virtual time (Sim.Sleep, Cond.Wait,
// Sim.Run, WaitGroup.Wait, a channel receive or select, a
// transport frame read) or calls, transitively through any number of
// packages, something that does. Within each function, lock/unlock
// pairing is tracked flow-insensitively in source order per body:
// x.Lock()/x.RLock() adds x to the held set, x.Unlock()/x.RUnlock()
// removes it, a deferred unlock holds to the end of the body. Any call
// to a may-block function (or a direct receive/select) while the held
// set is non-empty is a finding.
//
// Exemptions: internal/vtime itself (its internals are the blocking
// machinery — its may-block entries are still computed, for
// everyone else), and Cond.Wait/WaitTimeout called while holding a lock
// (the condition variable releases its locker before suspending; that
// is the sanctioned pattern). Genuinely safe sites — a lock provably
// disjoint from everything the callee's blocking path touches — carry
// //esglint:vtblock <reason>.
var VTBlock = &Analyzer{
	Name:   "vtblock",
	Doc:    "flag mutexes held across calls that may (transitively) block on virtual time",
	Escape: "vtblock",
	Exempt: isVtimePath,
	Run:    runVTBlock,
}

func runVTBlock(pass *Pass) error {
	funcs := packageFuncs(pass)
	computeMayBlock(pass, funcs)
	if pass.Analyzer.Exempt(pass.Path) {
		return nil
	}
	for _, fd := range funcs {
		checkLocksHeld(pass, fd)
	}
	return nil
}

// mayBlockVia resolves whether calling fn may block, consulting the
// seed set first and then pass.mayBlock (same-package entries are
// recorded by the fixpoint before any lock check runs; dependency
// entries were recorded when their package was analyzed).
func mayBlockVia(pass *Pass, fn *types.Func) (string, bool) {
	if via, ok := blockSeed(fn); ok {
		return via, true
	}
	via, ok := pass.mayBlock[fn]
	return via, ok
}

// computeMayBlock runs the intra-package fixpoint: a function blocks if
// its attributed body blocks directly or calls a function already known
// to. Functions are scanned in position order and the loop runs until
// no new entry appears, so mutual recursion converges and the result is
// independent of declaration order.
func computeMayBlock(pass *Pass, funcs []funcDecl) {
	scan := func(fd funcDecl) string {
		blockVia := ""
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && blockVia == "" {
					blockVia = "channel receive"
				}
			case *ast.SelectStmt:
				// The select as a whole blocks unless it has a default;
				// its communication ops belong to the select, not to the
				// surrounding flow, so only the clause bodies are walked.
				if blockVia == "" && !selectHasDefault(n) {
					blockVia = "select"
				}
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, stmt := range cc.Body {
							inspectAttributed(stmt, visit)
						}
					}
				}
				return false
			case *ast.RangeStmt:
				if blockVia == "" {
					if tv, ok := pass.Info.Types[n.X]; ok && tv.Type != nil {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							blockVia = "range over channel"
						}
					}
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass, n)
				if fn == nil {
					return true
				}
				if blockVia == "" {
					if via, seeded := blockSeed(fn); seeded {
						blockVia = via
					} else if via, ok := pass.mayBlock[fn]; ok {
						blockVia = callName(fn) + " → " + firstHop(via)
					}
				}
			}
			return true
		}
		inspectAttributed(fd.decl.Body, visit)
		return blockVia
	}

	for changed := true; changed; {
		changed = false
		for _, fd := range funcs {
			if _, known := pass.mayBlock[fd.fn]; known {
				continue
			}
			if via := scan(fd); via != "" {
				pass.mayBlock[fd.fn] = via
				changed = true
			}
		}
	}
}

// firstHop truncates a via chain to its first element so exported
// chains stay short: "a → b → c" reads as "a → …" beyond one hop.
func firstHop(via string) string {
	for i := 0; i+2 < len(via); i++ {
		if via[i] == ' ' && via[i+1] == 0xe2 { // " →"
			return via[:i] + " → …"
		}
	}
	return via
}

// callName renders fn for a via chain: pkg.Recv.Name or pkg.Name.
func callName(fn *types.Func) string {
	name := recvPrefix(fn) + fn.Name()
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// checkLocksHeld walks one function body in source order, maintaining
// the held-lock set, and reports blocking constructs reached while it
// is non-empty. Deferred statements are not walked: a deferred unlock
// keeps the lock held (the common mu.Lock(); defer mu.Unlock() shape),
// and a deferred call runs at return where this walk's held set no
// longer applies.
func checkLocksHeld(pass *Pass, fd funcDecl) {
	held := map[string]string{} // key -> display name
	report := func(pos token.Pos, what string) {
		lock := ""
		for _, name := range held {
			if lock == "" || name < lock {
				lock = name
			}
		}
		pass.Reportf(pos,
			"%s held across %s, which may block on virtual time; unlock before blocking or annotate //esglint:vtblock <reason>",
			lock, what)
	}

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// Not walked: a deferred Unlock pins the lock for the rest of
			// the body (deliberately no delete), and any other deferred
			// call runs at return, outside this walk's flow.
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 {
				report(n.Pos(), "a channel receive")
			}
		case *ast.SelectStmt:
			// One finding for the select itself; its communication ops
			// belong to it, so only the clause bodies are walked further.
			if len(held) > 0 && !selectHasDefault(n) {
				report(n.Pos(), "a select with no default")
			}
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, stmt := range cc.Body {
						inspectAttributed(stmt, visit)
					}
				}
			}
			return false
		case *ast.RangeStmt:
			if len(held) > 0 {
				if tv, ok := pass.Info.Types[n.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						report(n.Pos(), "a range over a channel")
					}
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(pass, n)
			if fn == nil {
				return true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					key := types.ExprString(sel.X)
					switch fn.Name() {
					case "Lock":
						held[key] = key
					case "RLock":
						held[key+"/R"] = key + " (RLock)"
					case "Unlock":
						delete(held, key)
					case "RUnlock":
						delete(held, key+"/R")
					}
				}
				return true
			}
			if len(held) == 0 || condWaitExempt(fn) {
				return true
			}
			if via, ok := mayBlockVia(pass, fn); ok {
				what := "a call to " + callName(fn)
				if via != callName(fn) {
					what += " (may block via " + via + ")"
				}
				report(n.Pos(), what)
			}
		}
		return true
	}
	inspectAttributed(fd.decl.Body, visit)
}
