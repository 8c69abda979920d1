package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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

// cacheVersion invalidates every cached result when the driver's on-disk
// format or the analyzers' semantics change incompatibly. Bump it whenever a
// released analyzer starts reporting different findings for identical source.
const cacheVersion = "dynnlint-cache-v1"

// Options configures Analyze.
type Options struct {
	// Analyzers to run; nil means All().
	Analyzers []*Analyzer
	// CacheDir holds per-package result files keyed by content hash; ""
	// disables caching entirely.
	CacheDir string
	// Jobs bounds type-check and analysis parallelism; <=0 means GOMAXPROCS.
	Jobs int
}

// Stats reports what Analyze actually did, so callers (and tests) can tell a
// warm run from a cold one.
type Stats struct {
	// Packages is the number of requested (matched) packages.
	Packages int `json:"packages"`
	// CacheHits is how many requested packages were served from cache.
	CacheHits int `json:"cache_hits"`
	// CacheMisses is how many requested packages were analyzed fresh.
	CacheMisses int `json:"cache_misses"`
	// LoadedPackages is how many packages were parsed and type-checked —
	// the misses plus every module dependency a miss needed. A fully warm
	// run loads zero.
	LoadedPackages int `json:"loaded_packages"`
}

// Result is Analyze's output: position-sorted surviving findings plus stats.
type Result struct {
	Findings []Finding
	Stats    Stats
}

// Analyze is the incremental parallel driver behind cmd/dynnlint. It expands
// patterns relative to root, computes a content hash per package (own files +
// transitive module deps + analyzer set), serves unchanged packages from the
// cache, and type-checks + analyzes the rest with a bounded worker pool.
// Findings cache post-suppression, so editing a //dynnlint:ignore directive
// changes the file hash and re-lints the package.
func Analyze(root string, patterns []string, opts Options) (*Result, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}

	sc, err := scanModule(root, patterns)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: Stats{Packages: len(sc.requested)}}

	// Cache lookup: a requested package whose key file exists is a hit.
	keys := map[string]string{}
	if opts.CacheDir != "" {
		for _, path := range sc.order {
			k, err := sc.keyOf(path, analyzers)
			if err != nil {
				return nil, err
			}
			keys[path] = k
		}
	}
	var misses []string
	for _, path := range sc.requested {
		if opts.CacheDir != "" {
			if cached, ok := readCache(opts.CacheDir, keys[path]); ok {
				res.Stats.CacheHits++
				for _, f := range cached {
					f.File = filepath.Join(root, filepath.FromSlash(f.File))
					res.Findings = append(res.Findings, f)
				}
				continue
			}
		}
		res.Stats.CacheMisses++
		misses = append(misses, path)
	}

	if len(misses) > 0 {
		// Every miss plus its transitive module deps must be type-checked;
		// cache hits outside that closure are never touched.
		need := map[string]bool{}
		var mark func(path string)
		mark = func(path string) {
			if need[path] {
				return
			}
			need[path] = true
			for _, dep := range sc.deps[path] {
				mark(dep)
			}
		}
		for _, path := range misses {
			mark(path)
		}
		res.Stats.LoadedPackages = len(need)

		l := NewLoader()
		if err := checkParallel(l, sc, need, jobs); err != nil {
			return nil, err
		}

		// Analyze misses concurrently; each analysis touches only its own
		// package plus read-only imported types.
		fresh := make([][]Finding, len(misses))
		var wg sync.WaitGroup
		sem := make(chan struct{}, jobs)
		for i, path := range misses {
			pkg, ok := l.lookup(path)
			if !ok {
				return nil, fmt.Errorf("lint: package %s not loaded", path)
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, pkg *Package) {
				defer wg.Done()
				defer func() { <-sem }()
				fresh[i] = runPackage(pkg, analyzers)
			}(i, pkg)
		}
		wg.Wait()
		for i, path := range misses {
			res.Findings = append(res.Findings, fresh[i]...)
			if opts.CacheDir != "" {
				writeCache(opts.CacheDir, keys[path], root, fresh[i])
			}
		}
	}

	sortFindings(res.Findings)
	return res, nil
}

// moduleScan is the imports-only view of the requested packages and their
// module-internal dependency closure: enough to compute cache keys and a
// type-check schedule without parsing function bodies.
type moduleScan struct {
	root      string
	modPath   string
	requested []string            // pattern-matched import paths, pattern order
	order     []string            // requested + dependency closure
	dirs      map[string]string   // import path -> directory
	files     map[string][]string // import path -> sorted non-test .go files
	deps      map[string][]string // module-internal imports only

	keys map[string]string // memoized cache keys
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
	sc := &moduleScan{
		root:    root,
		modPath: modPath,
		dirs:    map[string]string{},
		files:   map[string][]string{},
		deps:    map[string][]string{},
		keys:    map[string]string{},
	}
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
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !isPackageFile(dir, name) {
				continue
			}
			fn := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, fn, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			sc.files[path] = append(sc.files[path], fn)
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if !seen[ip] && (ip == modPath || strings.HasPrefix(ip, modPath+"/")) {
					seen[ip] = true
					sc.deps[path] = append(sc.deps[path], ip)
				}
			}
		}
		if len(sc.files[path]) == 0 {
			delete(sc.dirs, path)
			return nil
		}
		sort.Strings(sc.files[path])
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

// keyOf computes the package's cache key: the version tag, toolchain, and
// analyzer set, the package's own file contents, and — transitively — the
// keys of its module dependencies. Any edit anywhere in the dependency cone
// therefore misses.
func (sc *moduleScan) keyOf(path string, analyzers []*Analyzer) (string, error) {
	if k, ok := sc.keys[path]; ok {
		return k, nil
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", cacheVersion, runtime.Version())
	names := make([]string, len(analyzers))
	for i, an := range analyzers {
		names[i] = an.Name
	}
	sort.Strings(names)
	fmt.Fprintf(h, "analyzers=%s\n", strings.Join(names, ","))
	fmt.Fprintf(h, "pkg=%s\n", path)
	for _, fn := range sc.files[path] {
		data, err := os.ReadFile(fn)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(h, "file=%s %s\n", filepath.Base(fn), hex.EncodeToString(sum[:]))
	}
	for _, dep := range sc.deps[path] {
		dk, err := sc.keyOf(dep, analyzers)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "dep=%s %s\n", dep, dk)
	}
	k := hex.EncodeToString(h.Sum(nil))
	sc.keys[path] = k
	return k, nil
}

// cachedFindings is the on-disk cache entry: post-suppression findings with
// root-relative slash paths, so entries survive a checkout move.
type cachedFindings struct {
	Findings []Finding `json:"findings"`
}

func cachePath(dir, key string) string { return filepath.Join(dir, key+".json") }

func readCache(dir, key string) ([]Finding, bool) {
	data, err := os.ReadFile(cachePath(dir, key))
	if err != nil {
		return nil, false
	}
	var c cachedFindings
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, false
	}
	return c.Findings, true
}

// writeCache persists findings best-effort: a cache write failure never fails
// the lint run. Files land via rename so concurrent runs see whole entries.
func writeCache(dir, key, root string, findings []Finding) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	c := cachedFindings{Findings: []Finding{}}
	for _, f := range findings {
		if rel, err := filepath.Rel(root, f.File); err == nil && !strings.HasPrefix(rel, "..") {
			f.File = filepath.ToSlash(rel)
		}
		c.Findings = append(c.Findings, f)
	}
	data, err := json.Marshal(c)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err == nil {
		tmp.Close()
		os.Rename(tmp.Name(), cachePath(dir, key))
	} else {
		tmp.Close()
		os.Remove(tmp.Name())
	}
}

// checkParallel parses and type-checks the needed packages in dependency
// waves: a package becomes ready when all its module deps are stored, and
// ready packages run on up to jobs workers. The loader serializes the two
// shared structures (package map, stdlib importer) internally.
func checkParallel(l *Loader, sc *moduleScan, need map[string]bool, jobs int) error {
	unmet := map[string]int{}
	dependents := map[string][]string{}
	var ready []string
	for path := range need {
		n := 0
		for _, dep := range sc.deps[path] {
			if need[dep] {
				n++
				dependents[dep] = append(dependents[dep], path)
			}
		}
		unmet[path] = n
		if n == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		remaining = len(need)
		firstErr  error
	)
	if jobs > remaining {
		jobs = remaining
	}
	if jobs < 1 {
		jobs = 1
	}
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
