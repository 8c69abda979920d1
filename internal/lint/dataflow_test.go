package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot is the repo root relative to this package, for fixtures whose
// imports resolve against the real tree.
var moduleRoot = filepath.Join("..", "..")

// cfgFixtures drives the CFG/dataflow analyzer fixture suites. Each fixture
// loads at an import path that places it in the analyzer's scope; withDeps
// fixtures import production packages (gpusim, obsv) resolved from the real
// tree. The allocleak fixtures are hermetic: they define a stand-in Allocator
// and load at the gpusim import path so the analyzer adopts it.
var cfgFixtures = []struct {
	analyzer       string
	flaggedPath    string
	cleanPath      string
	suppressedPath string
	withDeps       bool
}{
	{"allocleak", "dynnoffload/internal/gpusim", "dynnoffload/internal/gpusim", "dynnoffload/internal/gpusim", false},
	{"clockunits", inScopePath, inScopePath, inScopePath, true},
}

func loadCFGFixture(t *testing.T, rel, importPath string, withDeps bool) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", rel)
	var (
		pkg *Package
		err error
	)
	if withDeps {
		pkg, err = LoadDirWithDeps(moduleRoot, dir, importPath)
	} else {
		pkg, err = LoadDir(dir, importPath)
	}
	if err != nil {
		t.Fatalf("load fixture %s: %v", rel, err)
	}
	return pkg
}

// TestDataflowFlaggedFixtures checks each CFG/dataflow analyzer catches every
// seeded violation, byte-for-byte against the golden expectations, and that
// no other analyzer fires on the fixture.
func TestDataflowFlaggedFixtures(t *testing.T) {
	for _, tc := range cfgFixtures {
		t.Run(tc.analyzer, func(t *testing.T) {
			rel := filepath.Join(tc.analyzer, "flagged")
			pkg := loadCFGFixture(t, rel, tc.flaggedPath, tc.withDeps)
			got := render(Run([]*Package{pkg}, All()))
			diffLines(t, rel, got, readGolden(t, rel))
			for _, line := range got {
				if !strings.Contains(line, " "+tc.analyzer+": ") {
					t.Errorf("unexpected cross-analyzer finding in %s: %s", rel, line)
				}
			}
		})
	}
}

// TestDataflowCleanFixtures checks the clean twins stay silent under the full
// analyzer suite: balanced releases, deferred closes, and ownership
// transfers must all pass.
func TestDataflowCleanFixtures(t *testing.T) {
	for _, tc := range cfgFixtures {
		t.Run(tc.analyzer, func(t *testing.T) {
			rel := filepath.Join(tc.analyzer, "clean")
			pkg := loadCFGFixture(t, rel, tc.cleanPath, tc.withDeps)
			if got := render(Run([]*Package{pkg}, All())); len(got) != 0 {
				t.Errorf("clean fixture produced findings:\n  %s", strings.Join(got, "\n  "))
			}
		})
	}
}

// TestDataflowSuppressedFixtures checks a //dynnlint:ignore directive with a
// reason silences each CFG/dataflow analyzer.
func TestDataflowSuppressedFixtures(t *testing.T) {
	for _, tc := range cfgFixtures {
		t.Run(tc.analyzer, func(t *testing.T) {
			rel := filepath.Join(tc.analyzer, "suppressed")
			pkg := loadCFGFixture(t, rel, tc.suppressedPath, tc.withDeps)
			if got := render(Run([]*Package{pkg}, All())); len(got) != 0 {
				t.Errorf("suppressed fixture leaked findings:\n  %s", strings.Join(got, "\n  "))
			}
			// The violation must exist when the directive is ignored: rerun
			// with suppression defeated by checking the flagged twin reports
			// for this analyzer (covered in TestDataflowFlaggedFixtures).
		})
	}
}

// TestDataflowAnalyzersScopeOut loads scope-sensitive fixtures at paths
// outside their scope: nothing may fire.
func TestDataflowAnalyzersScopeOut(t *testing.T) {
	// clockunits is scoped to the deterministic packages.
	pkg := loadCFGFixture(t, filepath.Join("clockunits", "flagged"), outOfScopePath, true)
	if got := render(Run([]*Package{pkg}, ByName([]string{"clockunits"}))); len(got) != 0 {
		t.Errorf("clockunits fired outside the deterministic scope:\n  %s", strings.Join(got, "\n  "))
	}
}
