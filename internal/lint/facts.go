package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// The facts layer: interprocedural state analyzers attach to objects
// (functions, mostly) and read back across package boundaries. The
// shape deliberately mirrors golang.org/x/tools/go/analysis object
// facts — ExportObjectFact / ImportObjectFact keyed by (object, fact
// type) — so that porting the suite onto the upstream module stays the
// mechanical change DESIGN.md §10 promises. The one structural
// difference: upstream serializes facts into export data between
// separate driver processes, while this kernel analyzes the whole
// program in one process, so the store is a plain in-memory map shared
// by every pass of one AnalyzeProgram run.
//
// Determinism contract: facts must make analyzer output a pure function
// of the source tree. AnalyzeProgram guarantees packages are visited in
// topologically sorted import order (ties broken by import path), so an
// importer always sees its dependencies' facts fully computed, and the
// same tree produces the same facts regardless of load order — see
// TestFactPropagationOrderIndependent.

// A Fact is interprocedural information attached to a types.Object.
// Implementations must be pointer types; AFact is a marker.
type Fact interface{ AFact() }

// MayBlock marks a function that may suspend the calling goroutine on
// virtual time: directly (Sim.Sleep, Cond.Wait, a channel receive,
// a telemetry frame read) or by calling something that does. Via names
// the first blocking reason on a shortest known chain, for diagnostics.
type MayBlock struct{ Via string }

// AFact implements Fact.
func (*MayBlock) AFact() {}

func (f *MayBlock) String() string { return "mayBlock(via " + f.Via + ")" }

// SpawnsGoroutine marks a function that starts a goroutine — a bare go
// statement or a managed-spawn helper (Clock.Go, Sim.Go,
// WaitGroup.Go) — directly or transitively. Via names the first spawn
// site reason on a known chain.
type SpawnsGoroutine struct{ Via string }

// AFact implements Fact.
func (*SpawnsGoroutine) AFact() {}

func (f *SpawnsGoroutine) String() string { return "spawnsGoroutine(via " + f.Via + ")" }

// factKey identifies one fact: which object, which fact type.
type factKey struct {
	obj types.Object
	typ reflect.Type
}

// factStore holds every fact exported during one AnalyzeProgram run.
type factStore struct {
	m map[factKey]Fact
}

func newFactStore() *factStore {
	return &factStore{m: map[factKey]Fact{}}
}

// ExportObjectFact associates fact with obj, overwriting any previous
// fact of the same type. The pass's analyzer must declare NeedsFacts.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil {
		panic(fmt.Sprintf("lint: analyzer %s exports facts without NeedsFacts", p.Analyzer.Name))
	}
	if obj == nil {
		return
	}
	p.facts.m[factKey{obj, reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies the fact of fact's type attached to obj into
// fact and reports whether one was found. obj may belong to any package
// analyzed earlier in the program (or this one).
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil {
		return false
	}
	f, ok := p.facts.m[factKey{obj, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// ObjectFact is one exported fact, for deterministic enumeration.
type ObjectFact struct {
	Obj  types.Object
	Fact Fact
}

// AllObjectFacts returns every fact in the store, sorted by the
// object's package path, object name, and fact type name — a canonical
// order independent of map iteration and load order.
func (p *Pass) AllObjectFacts() []ObjectFact {
	if p.facts == nil {
		return nil
	}
	out := make([]ObjectFact, 0, len(p.facts.m))
	for k, f := range p.facts.m {
		out = append(out, ObjectFact{Obj: k.obj, Fact: f})
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := objPkgPath(out[i].Obj), objPkgPath(out[j].Obj)
		if pi != pj {
			return pi < pj
		}
		if out[i].Obj.Name() != out[j].Obj.Name() {
			return out[i].Obj.Name() < out[j].Obj.Name()
		}
		ti := reflect.TypeOf(out[i].Fact).String()
		tj := reflect.TypeOf(out[j].Fact).String()
		if ti != tj {
			return ti < tj
		}
		return out[i].Obj.Pos() < out[j].Obj.Pos()
	})
	return out
}

func objPkgPath(o types.Object) string {
	if o == nil || o.Pkg() == nil {
		return ""
	}
	return o.Pkg().Path()
}

// topoSortPackages orders pkgs dependencies-first, ties broken by
// import path, independent of the input order. Only edges between
// packages in the set matter; everything else (stdlib) is already
// compiled export data with no facts to contribute.
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
		p := byPath[path]
		if p.Types == nil {
			continue // syntax-only load: no import graph, lexical order
		}
		for _, imp := range p.Types.Imports() {
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
