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
	"sync"
)

// Package is one parsed and type-checked (non-test) package.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks module packages with zero non-stdlib
// dependencies: module-internal imports resolve to already-checked packages,
// everything else falls through to the stdlib source importer.
//
// The loader may type-check independent packages from multiple goroutines:
// the package map and the stdlib importer (which is not concurrency-safe) are
// guarded by mu. The FileSet is safe for concurrent use on its own.
type Loader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	mu   sync.Mutex
	pkgs map[string]*Package // by import path
}

// NewLoader creates a loader backed by the GOROOT source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*Package{},
	}
}

// Import implements types.Importer over the loader's package set plus the
// stdlib fallback.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom. The stdlib fallback is serialized
// because the source importer keeps unsynchronized internal state; module
// packages resolve from the (guarded) package map.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// store publishes a checked package for importers; safe for concurrent use.
func (l *Loader) store(pkg *Package) {
	l.mu.Lock()
	l.pkgs[pkg.Path] = pkg
	l.mu.Unlock()
}

// lookup fetches a previously stored package; safe for concurrent use.
func (l *Loader) lookup(path string) (*Package, bool) {
	l.mu.Lock()
	p, ok := l.pkgs[path]
	l.mu.Unlock()
	return p, ok
}

type parsedDir struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string
}

// isPackageFile reports whether the file name in dir is one of the
// package's non-test Go files as the go command builds it for this GOOS and
// GOARCH: //go:build lines and _GOOS/_GOARCH name suffixes apply, so a
// package that splits a function across per-architecture files type-checks.
// A file whose constraints cannot be read counts, so its error surfaces
// when it is parsed.
func isPackageFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return ok || err != nil
}

func (l *Loader) parseDirAs(dir, importPath string) (*parsedDir, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &parsedDir{path: importPath, dir: dir}
	seen := map[string]bool{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !isPackageFile(dir, name) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if !seen[ip] {
				seen[ip] = true
				p.imports = append(p.imports, ip)
			}
		}
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	return p, nil
}

func (l *Loader) typeCheck(p *parsedDir) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(p.path, l.fset, p.files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", p.path, typeErrs[0])
	}
	return &Package{
		Path:  p.path,
		Dir:   p.dir,
		Fset:  l.fset,
		Files: p.files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// modulePath reads the module declaration from go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// expandPatterns resolves package patterns to directories under root.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		if pat == "" || pat == "." {
			pat = "."
		}
		base := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			// Only directories that contain non-test Go files become packages.
			ents, err := os.ReadDir(path)
			if err != nil {
				return err
			}
			for _, e := range ents {
				n := e.Name()
				if !e.IsDir() && isPackageFile(path, n) {
					add(path)
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
