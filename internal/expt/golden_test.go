package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// maskTable copies a table with the given column indexes replaced by a fixed
// placeholder. The masked columns hold wall-clock measurements (pilot
// training/inference time and everything derived from them) that legitimately
// vary run to run; everything else in these tables is simulated virtual time
// or seeded arithmetic and must reproduce byte-for-byte.
func maskTable(tab *Table, cols ...int) *Table {
	masked := &Table{
		Title:  tab.Title,
		Header: append([]string(nil), tab.Header...),
		Notes:  append([]string(nil), tab.Notes...),
	}
	set := map[int]bool{}
	for _, c := range cols {
		set[c] = true
	}
	for _, row := range tab.Rows {
		masked.Rows = append(masked.Rows, maskRow(row, set, "<wall>"))
	}
	for _, row := range tab.raw {
		masked.raw = append(masked.raw, maskRow(row, set, any("<wall>")))
	}
	return masked
}

// maskRow copies row with the cells at the set's indexes replaced by wall.
func maskRow[T any](row []T, set map[int]bool, wall T) []T {
	r := append([]T(nil), row...)
	for i := range r {
		if set[i] {
			r[i] = wall
		}
	}
	return r
}

// rawDigest is a SHA-256 over a masked table's unrounded cell values. The
// golden text rounds to display precision, so a one-unit change to a cost
// constant can leave every printed cell as it was; the digest moves. %v
// prints a float64 in the shortest form that parses back to the same bits.
func rawDigest(t *testing.T, tab *Table) string {
	t.Helper()
	if len(tab.raw) != len(tab.Rows) {
		t.Fatalf("%s: %d raw rows for %d rows: build its rows with addRow", tab.Title, len(tab.raw), len(tab.Rows))
	}
	h := sha256.New()
	for _, row := range tab.raw {
		for _, v := range row {
			fmt.Fprintf(h, "%v\t", v)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCheck renders the table (volatile columns masked) and compares it to
// the checked-in golden file, and the digest of its unrounded rows to the
// checked-in .raw.sha256 file; -update rewrites both instead.
func goldenCheck(t *testing.T, name string, tab *Table, volatileCols ...int) {
	t.Helper()
	masked := maskTable(tab, volatileCols...)
	var sb strings.Builder
	masked.Fprint(&sb)
	compareGolden(t, name, filepath.Join("testdata", "golden", name+".txt"), sb.String())
	compareGolden(t, name+" raw rows", filepath.Join("testdata", "golden", name+".raw.sha256"), rawDigest(t, masked)+"\n")
}

// compareGolden compares got with the file at path; -update rewrites the
// file instead.
func compareGolden(t *testing.T, name, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from %s\n--- got ---\n%s--- want ---\n%s", name, path, got, string(want))
	}
}

// goldenOpts sizes the pilot-study experiments (Table IV, Fig 11) well below
// bench scale: golden tests pin exact output, so they only need enough data
// for stable seeded arithmetic, not statistical quality.
func goldenOpts() Options {
	opts := DefaultOptions()
	opts.TrainSamples = 120
	opts.TestSamples = 40
	opts.Epochs = 4
	opts.Batch = 8
	return opts
}

func TestGoldenTableI(t *testing.T) {
	tab, err := TableI(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "table1", tab)
}

func TestGoldenTableIII(t *testing.T) {
	tab, err := TableIII(24, 1024, 512)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "table3", tab)
}

func TestGoldenTableIV(t *testing.T) {
	if testing.Short() {
		t.Skip("pilot dataset construction is expensive")
	}
	tab, err := TableIV(goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "table4", tab, 3, 4) // infer us, train s: wall clock
}

func TestGoldenFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("pilot dataset construction is expensive")
	}
	tab, err := Fig11(goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "fig11", tab)
}

func TestGoldenServeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("workbench construction is expensive")
	}
	tab, err := ServeSweep(testWorkbench(t))
	if err != nil {
		t.Fatal(err)
	}
	// Every column is virtual time or seeded arithmetic: nothing to mask.
	goldenCheck(t, "servesweep", tab)
}

func TestGoldenFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("workbench construction is expensive")
	}
	tab, err := Fig10(testWorkbench(t))
	if err != nil {
		t.Fatal(err)
	}
	// The cluster DES runtime makes makespan, all-reduce, throughput, and
	// scaling efficiency pure virtual time; only the measured pilot overhead
	// column is wall clock.
	goldenCheck(t, "fig10", tab, 6)
}

func TestGoldenClusterSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("workbench construction is expensive")
	}
	tab, err := ClusterSweep(testWorkbench(t))
	if err != nil {
		t.Fatal(err)
	}
	// Every column is virtual time or seeded arithmetic: nothing to mask.
	goldenCheck(t, "clustersweep", tab)
}

func TestGoldenOnlineSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("workbench construction is expensive")
	}
	tab, err := OnlineSweep(testWorkbench(t))
	if err != nil {
		t.Fatal(err)
	}
	// Window rates, retrain counts, and retrain cost are all seeded simulated
	// quantities: nothing to mask.
	goldenCheck(t, "onlinesweep", tab)
}
