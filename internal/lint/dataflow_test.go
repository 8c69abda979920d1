package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// dataflowFixtures drives the dataflow analyzer fixture suites. Each fixture
// loads at an import path that places it in the analyzer's scope and imports
// production packages (gpusim, obsv) resolved from the real tree.
var dataflowFixtures = []struct {
	analyzer   string
	importPath string
}{
	{"clockunits", inScopePath},
}

// TestDataflowFlaggedFixtures checks each dataflow analyzer catches every
// seeded violation, byte-for-byte against the golden expectations, and that
// no other analyzer fires on the fixture.
func TestDataflowFlaggedFixtures(t *testing.T) {
	for _, tc := range dataflowFixtures {
		t.Run(tc.analyzer, func(t *testing.T) {
			rel := filepath.Join(tc.analyzer, "flagged")
			pkg := loadFixture(t, rel, tc.importPath)
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

// TestDataflowCleanFixtures checks the clean twins stay silent under the full
// analyzer suite: balanced releases, deferred closes, and ownership
// transfers must all pass.
func TestDataflowCleanFixtures(t *testing.T) {
	for _, tc := range dataflowFixtures {
		t.Run(tc.analyzer, func(t *testing.T) {
			rel := filepath.Join(tc.analyzer, "clean")
			pkg := loadFixture(t, rel, tc.importPath)
			if got := render(lintFixture(pkg, All())); len(got) != 0 {
				t.Errorf("clean fixture produced findings:\n  %s", strings.Join(got, "\n  "))
			}
		})
	}
}

// TestDataflowSuppressedFixtures checks a //dynnlint:ignore directive with a
// reason silences each dataflow analyzer.
func TestDataflowSuppressedFixtures(t *testing.T) {
	for _, tc := range dataflowFixtures {
		t.Run(tc.analyzer, func(t *testing.T) {
			rel := filepath.Join(tc.analyzer, "suppressed")
			pkg := loadFixture(t, rel, tc.importPath)
			if got := render(lintFixture(pkg, All())); len(got) != 0 {
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
	pkg := loadFixture(t, filepath.Join("clockunits", "flagged"), outOfScopePath)
	if got := render(lintFixture(pkg, ByName([]string{"clockunits"}))); len(got) != 0 {
		t.Errorf("clockunits fired outside the deterministic scope:\n  %s", strings.Join(got, "\n  "))
	}
}
