package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyze is the driver behind cmd/dynnlint. It expands patterns relative to
// root, type-checks the matched packages and their module dependencies on a
// worker pool, runs the analyzers over the matched packages, and returns the
// surviving findings sorted by position.
func Analyze(root string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	sc, err := scanModule(root, patterns)
	if err != nil {
		return nil, err
	}
	l := NewLoader()
	if err := checkParallel(l, sc); err != nil {
		return nil, err
	}

	// Each analysis touches only its own package plus read-only imported
	// types, so packages analyze concurrently.
	perPkg := make([][]Finding, len(sc.requested))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, path := range sc.requested {
		pkg, _ := l.lookup(path)
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pkg *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			perPkg[i] = runPackage(pkg, analyzers)
		}(i, pkg)
	}
	wg.Wait()
	var findings []Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	sortFindings(findings)
	return findings, nil
}

// moduleScan is the imports-only view of the requested packages and their
// module-internal dependency closure: enough for a type-check schedule
// without parsing function bodies.
type moduleScan struct {
	requested []string            // pattern-matched import paths, pattern order
	order     []string            // requested + dependency closure
	dirs      map[string]string   // import path -> directory
	deps      map[string][]string // module-internal imports only
}

// scanModule parses import clauses only (no bodies) across the requested
// patterns and the module-internal packages they reach.
func scanModule(root string, patterns []string) (*moduleScan, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}
	sc := &moduleScan{dirs: map[string]string{}, deps: map[string][]string{}}
	var scan func(path, dir string) error
	scan = func(path, dir string) error {
		if _, done := sc.dirs[path]; done {
			return nil
		}
		sc.dirs[path] = dir
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		seen := map[string]bool{}
		files := 0
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !isPackageFile(dir, name) {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			files++
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if !seen[ip] && (ip == modPath || strings.HasPrefix(ip, modPath+"/")) {
					seen[ip] = true
					sc.deps[path] = append(sc.deps[path], ip)
				}
			}
		}
		if files == 0 {
			delete(sc.dirs, path)
			return nil
		}
		sort.Strings(sc.deps[path])
		sc.order = append(sc.order, path)
		for _, ip := range sc.deps[path] {
			rel := strings.TrimPrefix(strings.TrimPrefix(ip, modPath), "/")
			if err := scan(ip, filepath.Join(root, filepath.FromSlash(rel))); err != nil {
				return fmt.Errorf("lint: cannot load module import %q: %v", ip, err)
			}
		}
		return nil
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		if err := scan(path, dir); err != nil {
			return nil, err
		}
		if _, ok := sc.dirs[path]; ok {
			sc.requested = append(sc.requested, path)
		}
	}
	return sc, nil
}

// checkParallel parses and type-checks every scanned package in dependency
// waves: a package becomes ready when all its module deps are stored, and
// ready packages run on up to GOMAXPROCS workers. The loader serializes the
// two shared structures (package map, stdlib importer) internally.
func checkParallel(l *Loader, sc *moduleScan) error {
	unmet := map[string]int{}
	dependents := map[string][]string{}
	var ready []string
	for _, path := range sc.order {
		unmet[path] = len(sc.deps[path])
		for _, dep := range sc.deps[path] {
			dependents[dep] = append(dependents[dep], path)
		}
		if unmet[path] == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		remaining = len(sc.order)
		firstErr  error
	)
	jobs := min(runtime.GOMAXPROCS(0), remaining)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && remaining > 0 && firstErr == nil {
					cond.Wait()
				}
				if remaining == 0 || firstErr != nil {
					mu.Unlock()
					return
				}
				path := ready[0]
				ready = ready[1:]
				mu.Unlock()

				pkg, err := loadOne(l, sc, path)

				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					l.store(pkg)
					for _, dep := range dependents[path] {
						unmet[dep]--
						if unmet[dep] == 0 {
							ready = append(ready, dep)
						}
					}
				}
				remaining--
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// loadOne parses (full AST, with comments) and type-checks a single package.
func loadOne(l *Loader, sc *moduleScan, path string) (*Package, error) {
	p, err := l.parseDirAs(sc.dirs[path], path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", sc.dirs[path])
	}
	return l.typeCheck(p)
}
