package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is an analysistest-style harness: analyzer test fixtures
// live under testdata/src/<importpath>/ and carry `// want "regexp"`
// comments on the lines where diagnostics are expected. RunAnalyzer
// loads the fixture package (resolving fixture-tree imports from source
// and everything else from `go list -export` data), runs one analyzer
// through the same Analyze path the driver uses — annotation escapes
// included — and diffs the diagnostics against the want comments.

// testingT is the subset of *testing.T the harness needs.
type testingT interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// RunAnalyzer checks analyzer a against the fixture package at
// srcRoot/src/<path>. Fixture-tree imports are loaded and analyzed too
// (dependencies first, so what vtblock learned about them is
// available), but want-comments are only diffed for the target package.
func RunAnalyzer(t testingT, srcRoot, path string, a *Analyzer) {
	t.Helper()
	pkgs, err := loadTestdataProgram(srcRoot, path)
	if err != nil {
		t.Fatalf("loading testdata package %s: %v", path, err)
	}
	target := pkgs[len(pkgs)-1]
	diags, err := AnalyzeProgram(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("analyzing %s: %v", path, err)
	}
	targetFiles := map[string]bool{}
	for _, f := range target.Files {
		targetFiles[target.Fset.Position(f.Pos()).Filename] = true
	}
	var kept []Diagnostic
	for _, d := range diags {
		if targetFiles[target.Fset.Position(d.Pos).Filename] {
			kept = append(kept, d)
		}
	}
	checkWants(t, target, kept)
}

// loadTestdataProgram loads srcRoot/src/<path> plus every fixture-tree
// package it (transitively) imports, dependencies first, target last.
// All other imports resolve through export data.
func loadTestdataProgram(srcRoot, path string) ([]*Package, error) {
	fset := token.NewFileSet()
	imp := newExportImporter(fset, nil)
	imp.srcRoot = srcRoot
	imp.fset = fset
	if _, err := imp.loadLocal(path); err != nil {
		return nil, err
	}
	return imp.localPkgs, nil
}

// loadLocal parses and type-checks one fixture package, memoizing it so
// diamond imports share a *types.Package identity.
func (im *exportImporter) loadLocal(path string) (*Package, error) {
	dir := filepath.Join(im.srcRoot, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var stdImports []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if _, err := os.Stat(filepath.Join(im.srcRoot, "src", filepath.FromSlash(p))); err == nil {
				if _, done := im.local[p]; !done {
					if _, err := im.loadLocal(p); err != nil {
						return nil, err
					}
				}
			} else {
				stdImports = append(stdImports, p)
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	if err := im.ensureExports(stdImports); err != nil {
		return nil, err
	}
	pkg, err := check(path, im.fset, files, im)
	if err != nil {
		return nil, err
	}
	im.local[path] = pkg.Types
	im.localPkgs = append(im.localPkgs, pkg)
	return pkg, nil
}

// ensureExports runs `go list -export` for any import paths whose export
// data the importer does not yet know.
func (im *exportImporter) ensureExports(paths []string) error {
	var missing []string
	for _, p := range paths {
		if _, ok := im.exports[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	pkgs, err := goList(im.srcRoot, missing)
	if err != nil {
		return err
	}
	for _, p := range pkgs {
		if p.Export != "" {
			im.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

// wantRe matches one quoted regexp in a want comment.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// checkWants diffs diagnostics against `// want "re"` comments.
func checkWants(t testingT, pkg *Package, diags []Diagnostic) {
	type key struct {
		file string
		line int
	}
	got := map[key][]Diagnostic{}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		got[k] = append(got[k], d)
	}
	want := map[key][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRe.FindAllString(rest, -1) {
					pat, err := strconv.Unquote(m)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, m, err)
					}
					want[k] = append(want[k], pat)
				}
			}
		}
	}

	for k, pats := range want {
		ds := got[k]
		for _, pat := range pats {
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", k.file, k.line, pat, err)
			}
			matched := -1
			for i, d := range ds {
				if re.MatchString(d.Message) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Errorf("%s:%d: no diagnostic matching %q (got %s)", k.file, k.line, pat, messages(ds))
				continue
			}
			ds = append(ds[:matched], ds[matched+1:]...)
		}
		if len(ds) > 0 {
			t.Errorf("%s:%d: unexpected diagnostics beyond wants: %s", k.file, k.line, messages(ds))
		}
		delete(got, k)
	}
	for k, ds := range got {
		t.Errorf("%s:%d: unexpected diagnostics: %s", k.file, k.line, messages(ds))
	}
}

func messages(ds []Diagnostic) string {
	if len(ds) == 0 {
		return "none"
	}
	var parts []string
	for _, d := range ds {
		parts = append(parts, fmt.Sprintf("[%s] %s", d.Analyzer, d.Message))
	}
	return strings.Join(parts, "; ")
}
