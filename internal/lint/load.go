package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Name       string
}

// goList runs `go list -export -deps -json` in dir over patterns and
// decodes the JSON stream. -export records each dependency's compiled
// export data in the build cache, which lets the loader type-check the
// main module's packages from source while importing every dependency
// (stdlib included) from export data — no network, no GOPATH layout.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,Name",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves import paths through compiled export data
// recorded by `go list -export`, falling back to already-checked local
// packages (in-module dependencies, or fixture-tree packages when driven
// by the analysistest harness).
type exportImporter struct {
	gc      types.Importer
	local   map[string]*types.Package
	exports map[string]string // import path -> export data file

	// Set by the analysistest harness only.
	srcRoot   string
	fset      *token.FileSet
	localPkgs []*Package // fixture packages in load order (deps before dependents)
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	if exports == nil {
		exports = map[string]string{}
	}
	im := &exportImporter{
		local:   map[string]*types.Package{},
		exports: exports,
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := im.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	im.gc = importer.ForCompiler(fset, "gc", lookup)
	return im
}

func (im *exportImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.local[path]; ok {
		return p, nil
	}
	return im.gc.Import(path)
}

// LoadPackages loads and type-checks the non-stdlib packages matched by
// patterns (resolved relative to dir, a directory inside a Go module;
// none means ./...), plus their in-module dependencies, in dependency
// order. Test files are not loaded: the esglint invariants govern
// non-test code, and tests exercise the invariant machinery itself
// (fixed clocks, raw kv arity).
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := newExportImporter(fset, exports)

	var out []*Package
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := check(p.ImportPath, fset, files, imp)
		if err != nil {
			return nil, err
		}
		// Main packages have no export data; dependency packages do, but
		// preferring the source-checked result keeps one *types.Package
		// identity per path across the load.
		imp.local[p.ImportPath] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

// check type-checks one package from parsed source.
func check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
