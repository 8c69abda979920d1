package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inScopePath places a fixture inside the deterministic-package scope so
// path-scoped analyzers (determinism, floatcmp) apply to it.
const inScopePath = "dynnoffload/internal/core/fixture"

// outOfScopePath places a fixture outside the deterministic scope.
const outOfScopePath = "dynnoffload/internal/expt/fixture"

// moduleRoot is the repo root relative to this package, for fixtures whose
// imports resolve against the real tree.
var moduleRoot = filepath.Join("..", "..")

// loadFixture type-checks testdata/src/<rel> as importPath. Its module
// imports (internal/gpusim, internal/obsv, ...) load from the real tree, so
// type-driven analyzers see the production method sets; importPath places
// the fixture inside or outside the path-scoped analyzers' scope.
func loadFixture(t *testing.T, rel, importPath string) *Package {
	t.Helper()
	modPath, err := modulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	var load func(dir, path string) (*Package, error)
	load = func(dir, path string) (*Package, error) {
		p, err := l.parseDirAs(dir, path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		for _, imp := range p.imports {
			if _, done := l.lookup(imp); done || !pkgPathHasPrefix(imp, modPath) {
				continue
			}
			rel := strings.TrimPrefix(strings.TrimPrefix(imp, modPath), "/")
			dep, err := load(filepath.Join(moduleRoot, filepath.FromSlash(rel)), imp)
			if err != nil {
				return nil, err
			}
			l.store(dep)
		}
		return l.typeCheck(p)
	}
	pkg, err := load(filepath.Join("testdata", "src", rel), importPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", rel, err)
	}
	return pkg
}

// lintFixture runs the analyzers over one fixture package and returns its
// surviving findings sorted by position.
func lintFixture(pkg *Package, analyzers []*Analyzer) []Finding {
	findings := runPackage(pkg, analyzers)
	sortFindings(findings)
	return findings
}

// render normalizes findings to the golden-file format: one
// "file:line: analyzer: message" line per finding, in reporting order.
func render(findings []Finding) []string {
	out := make([]string, 0, len(findings))
	for _, f := range findings {
		out = append(out, fmt.Sprintf("%s:%d: %s: %s",
			filepath.Base(f.File), f.Line, f.Analyzer, f.Message))
	}
	return out
}

func readGolden(t *testing.T, rel string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "src", rel, "expected.txt"))
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out
}

func diffLines(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d findings, want %d\ngot:\n  %s\nwant:\n  %s", name,
			len(got), len(want), strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: finding %d =\n  %s\nwant\n  %s", name, i, got[i], want[i])
		}
	}
}

// TestFlaggedFixtures checks each analyzer catches every seeded violation in
// its flagged fixture, byte-for-byte against the golden expectations.
func TestFlaggedFixtures(t *testing.T) {
	for _, tc := range []struct {
		analyzer string
	}{
		{"determinism"}, {"floatcmp"}, {"errdiscipline"}, {"panicfree"},
	} {
		t.Run(tc.analyzer, func(t *testing.T) {
			rel := filepath.Join(tc.analyzer, "flagged")
			pkg := loadFixture(t, rel, inScopePath)
			got := render(lintFixture(pkg, All()))
			diffLines(t, rel, got, readGolden(t, rel))
			for _, line := range got {
				if !strings.Contains(line, " "+tc.analyzer+": ") {
					t.Errorf("unexpected cross-analyzer finding in %s: %s", rel, line)
				}
			}
		})
	}
}

// TestCleanFixtures checks every analyzer stays silent on the clean twins.
func TestCleanFixtures(t *testing.T) {
	for _, analyzer := range []string{
		"determinism", "floatcmp", "errdiscipline", "panicfree",
	} {
		t.Run(analyzer, func(t *testing.T) {
			rel := filepath.Join(analyzer, "clean")
			pkg := loadFixture(t, rel, inScopePath)
			if got := render(lintFixture(pkg, All())); len(got) != 0 {
				t.Errorf("clean fixture produced findings:\n  %s", strings.Join(got, "\n  "))
			}
		})
	}
}

// TestScopedAnalyzersIgnoreOutOfScopePackages loads the determinism and
// floatcmp flagged fixtures under a non-deterministic import path: the
// path-scoped analyzers must not fire there.
func TestScopedAnalyzersIgnoreOutOfScopePackages(t *testing.T) {
	for _, analyzer := range []string{"determinism", "floatcmp"} {
		rel := filepath.Join(analyzer, "flagged")
		pkg := loadFixture(t, rel, outOfScopePath)
		findings := lintFixture(pkg, ByName([]string{analyzer}))
		if len(findings) != 0 {
			t.Errorf("%s fired outside its scope:\n  %s",
				analyzer, strings.Join(render(findings), "\n  "))
		}
	}
}

// TestSuppressionDirectives checks both directive forms silence their
// findings, and that a reason-less directive is reported by the "dynnlint"
// pseudo-analyzer while its target finding survives.
func TestSuppressionDirectives(t *testing.T) {
	pkg := loadFixture(t, "suppressed", inScopePath)
	got := render(lintFixture(pkg, All()))
	diffLines(t, "suppressed", got, readGolden(t, "suppressed"))

	joined := strings.Join(got, "\n")
	if strings.Contains(joined, "determinism") {
		t.Error("suppressed determinism findings leaked through")
	}
	if !strings.Contains(joined, "dynnlint:") {
		t.Error("malformed directive was not reported")
	}
	if !strings.Contains(joined, "panicfree:") {
		t.Error("finding behind the malformed directive was dropped")
	}
}

// TestFindingJSONShape pins the machine-readable output contract the driver's
// -json flag exposes.
func TestFindingJSONShape(t *testing.T) {
	f := Finding{Analyzer: "floatcmp", File: "x.go", Line: 3, Col: 9, Message: "m"}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"analyzer":"floatcmp","file":"x.go","line":3,"col":9,"message":"m"}`
	if string(b) != want {
		t.Errorf("JSON = %s, want %s", b, want)
	}
}

// TestByName pins analyzer selection for the driver's -analyzers flag.
func TestByName(t *testing.T) {
	if got := len(ByName(nil)); got != len(All()) {
		t.Errorf("ByName(nil) = %d analyzers, want all %d", got, len(All()))
	}
	sel := ByName([]string{"panicfree", "nosuch"})
	if len(sel) != 1 || sel[0].Name != "panicfree" {
		t.Errorf("ByName selection = %v", render(nil))
	}
}
