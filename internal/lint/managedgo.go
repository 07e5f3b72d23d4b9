package lint

import "go/ast"

// ManagedGo enforces the second interprocedural leg of the determinism
// contract (DESIGN.md §10): every goroutine must be a managed one —
// spawned through Clock.Go (Sim.Go on the simulated clock, Real.Go on
// the wall clock) or vtime.WaitGroup.Go — so that it runs only when the
// Sim hands it the baton and Sim.Run can unwind it before returning. A
// bare go statement is invisible to the Sim: it runs beside the baton's
// holder, breaking the one-goroutine-at-a-time rule (DESIGN.md §11),
// virtual time can advance "past" it, and teardown cannot unwind it,
// which is exactly the PR8 race where goroutines still unwinding their
// stacks raced Run's caller reading final state.
//
// Only internal/vtime is exempt: Sim.Go and Real.Go are the sanctioned
// implementations a bare go statement becomes.
// (Test files never reach the loader.) The rare legitimate bare spawn —
// a detached operator-facing helper on a real-time-only path that must
// outlive its spawner — carries //esglint:managedgo <reason>.
var ManagedGo = &Analyzer{
	Name:   "managedgo",
	Doc:    "require goroutines to be spawned via the managed helpers (Clock.Go / WaitGroup.Go), not bare go statements",
	Escape: "managedgo",
	Exempt: isVtimePath,
	Run:    runManagedGo,
}

func runManagedGo(pass *Pass) error {
	if pass.Analyzer.Exempt(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"bare go statement: spawn through the clock's managed helpers (Clock.Go / Sim.Go / vtime.WaitGroup.Go) so Sim.Run can join it, or annotate //esglint:managedgo <reason>")
			}
			return true
		})
	}
	return nil
}
