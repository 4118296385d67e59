// Package loading for the lint suite: a small module-aware loader that
// parses and type-checks packages using only the standard library.
// Imports within this module are resolved from source on disk; standard
// library imports go through go/importer's source importer, so the
// loader needs neither a module cache nor network access.

package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package's import path ("pimsim/internal/sim").
	ImportPath string
	// Dir is the directory the package was loaded from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// RelPath returns the package path relative to the loader's module
// ("internal/sim" for "pimsim/internal/sim", "" for the module root).
func (p *Package) RelPath(modulePath string) string {
	if p.ImportPath == modulePath {
		return ""
	}
	return strings.TrimPrefix(p.ImportPath, modulePath+"/")
}

// A Loader parses and type-checks packages of one module. It memoizes
// packages by import path, so a dependency type-checked for one analyzed
// package is reused by every later one.
type Loader struct {
	ModulePath string
	ModuleDir  string

	// ExtraRoots maps additional import-path prefixes to source
	// directories, resolved before the standard library. The
	// analysistest harness registers "peilinttest" → testdata/src here
	// so golden packages can import each other — which is what the
	// fact-propagation suites need.
	ExtraRoots map[string]string

	fset *token.FileSet
	src  types.ImporterFrom
	pkgs map[string]*Package
}

// Loaded returns the package previously loaded under the given import
// path, or nil. The driver uses it to map a types.Package in the import
// graph back to its syntax for fact gathering.
func (l *Loader) Loaded(importPath string) *Package {
	return l.pkgs[importPath]
}

// NewLoader creates a loader for the module rooted at dir, reading the
// module path from its go.mod.
func NewLoader(dir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer consults go/build's default context; with cgo
	// disabled the pure-Go variants of std packages (net, etc.) are
	// selected, which is exactly what an offline lint run wants.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModulePath: modPath,
		ModuleDir:  dir,
		fset:       fset,
		src:        src,
		pkgs:       make(map[string]*Package),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-local packages load
// from source under the module directory, everything else (the standard
// library) goes through the source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		p, err := l.LoadDir(filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	for prefix, root := range l.ExtraRoots {
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			rel := strings.TrimPrefix(strings.TrimPrefix(path, prefix), "/")
			p, err := l.LoadDir(filepath.Join(root, filepath.FromSlash(rel)), path)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
	}
	return l.src.ImportFrom(path, dir, mode)
}

// LoadDir parses and type-checks the package in dir under the given
// import path. Test files (_test.go) are excluded: the analyzers police
// simulator code, and skipping them keeps external test
// packages out of the type-checker. Results are memoized by import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	p := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// LoadAll walks the module tree and loads every package directory,
// skipping testdata, hidden directories, and directories without Go
// files. Packages come back sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	return l.LoadUnder(l.ModuleDir)
}

// LoadUnder loads every package rooted at dir (itself inside the
// loader's module).
func (l *Loader) LoadUnder(dir string) ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		hasGo, err := dirHasGoFiles(path)
		if err != nil {
			return err
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, path)
		if err != nil {
			return err
		}
		importPath := l.ModulePath
		if rel != "." {
			importPath = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.LoadDir(path, importPath)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

func dirHasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}
