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

// LoadModule expands patterns ("./...", "./internal/core", "cmd/dynnlint")
// relative to root — the directory holding go.mod — and loads every matched
// package in dependency order. Test files and testdata directories are
// skipped: dynnlint checks the code that ships.
func LoadModule(root string, patterns []string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}

	l := NewLoader()
	parsed := map[string]*parsedDir{}
	var order []string // import paths with Go files, pattern order
	for _, dir := range dirs {
		p, err := l.parseDir(root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if p == nil {
			continue
		}
		parsed[p.path] = p
		order = append(order, p.path)
	}

	// Type-check in dependency order: module-internal imports must be
	// checked before their importers.
	var out []*Package
	checking := map[string]bool{}
	var check func(path string) error
	check = func(path string) error {
		if _, done := l.pkgs[path]; done {
			return nil
		}
		p, ok := parsed[path]
		if !ok {
			// A module-internal import outside the requested patterns:
			// parse it on demand so the requested packages type-check.
			rel := strings.TrimPrefix(path, modPath)
			rel = strings.TrimPrefix(rel, "/")
			var err error
			p, err = l.parseDir(root, modPath, filepath.Join(root, rel))
			if err != nil || p == nil {
				return fmt.Errorf("lint: cannot load module import %q: %v", path, err)
			}
			parsed[path] = p
		}
		if checking[path] {
			return fmt.Errorf("lint: import cycle through %q", path)
		}
		checking[path] = true
		defer delete(checking, path)
		for _, imp := range p.imports {
			if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
				if err := check(imp); err != nil {
					return err
				}
			}
		}
		pkg, err := l.typeCheck(p)
		if err != nil {
			return err
		}
		l.pkgs[path] = pkg
		return nil
	}
	for _, path := range order {
		if err := check(path); err != nil {
			return nil, err
		}
	}
	for _, path := range order {
		out = append(out, l.pkgs[path])
	}
	return out, nil
}

// LoadDir type-checks a single directory as importPath. Fixture tests use it
// to place testdata packages at chosen import paths so path-scoped analyzers
// apply.
func LoadDir(dir, importPath string) (*Package, error) {
	l := NewLoader()
	p, err := l.parseDirAs(dir, importPath)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return l.typeCheck(p)
}

// LoadDirWithDeps type-checks dir as importPath like LoadDir, but resolves
// module-internal imports against the real tree rooted at root (the directory
// holding go.mod). Fixture packages use it to import production packages such
// as internal/gpusim or internal/obsv so type-driven analyzers see the real
// method sets.
func LoadDirWithDeps(root, dir, importPath string) (*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := NewLoader()
	checking := map[string]bool{}
	var load func(ip string) error
	load = func(ip string) error {
		if _, ok := l.pkgs[ip]; ok {
			return nil
		}
		if checking[ip] {
			return fmt.Errorf("lint: import cycle through %q", ip)
		}
		checking[ip] = true
		defer delete(checking, ip)
		rel := strings.TrimPrefix(strings.TrimPrefix(ip, modPath), "/")
		p, err := l.parseDirAs(filepath.Join(root, filepath.FromSlash(rel)), ip)
		if err != nil || p == nil {
			return fmt.Errorf("lint: cannot load module import %q: %v", ip, err)
		}
		for _, imp := range p.imports {
			if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
				if err := load(imp); err != nil {
					return err
				}
			}
		}
		pkg, err := l.typeCheck(p)
		if err != nil {
			return err
		}
		l.pkgs[ip] = pkg
		return nil
	}

	p, err := l.parseDirAs(dir, importPath)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	for _, imp := range p.imports {
		if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
			if err := load(imp); err != nil {
				return nil, err
			}
		}
	}
	return l.typeCheck(p)
}

type parsedDir struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string
}

func (l *Loader) parseDir(root, modPath, dir string) (*parsedDir, error) {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	return l.parseDirAs(dir, path)
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
