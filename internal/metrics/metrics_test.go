package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestJaccardKnown(t *testing.T) {
	a := []bool{true, true, false, false}
	b := []bool{true, false, true, false}
	// intersection 1, union 3 -> distance 2/3
	if got := Jaccard(a, b); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Jaccard = %v, want 2/3", got)
	}
	if Jaccard(a, a) != 0 {
		t.Error("identical vectors must have distance 0")
	}
	if Jaccard([]bool{false}, []bool{false}) != 0 {
		t.Error("all-false vectors must have distance 0")
	}
	if Jaccard([]bool{true}, []bool{false}) != 1 {
		t.Error("disjoint vectors must have distance 1")
	}
}

func TestJaccardProperties(t *testing.T) {
	f := func(raw [8]bool, raw2 [8]bool) bool {
		a, b := raw[:], raw2[:]
		d := Jaccard(a, b)
		if d < 0 || d > 1 {
			return false
		}
		return Jaccard(a, b) == Jaccard(b, a) // symmetry
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaccardGeneralized(t *testing.T) {
	if d := JaccardGeneralized([]int{1, 2, 3}, []int{1, 2, 4}); math.Abs(d-1.0/3) > 1e-12 {
		t.Errorf("got %v, want 1/3", d)
	}
	if JaccardGeneralized(nil, nil) != 0 {
		t.Error("empty vectors must have distance 0")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson = %v, want 1", got)
	}
	yn := []float64{-2, -4, -6, -8}
	if got := Pearson(x, yn); math.Abs(got+1) > 1e-12 {
		t.Errorf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantIsZero(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("constant series must yield 0")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125} // nonlinear but monotone
	if got := Spearman(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman = %v, want 1", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 2, 2, 3}
	y := []float64{1, 2, 2, 3}
	if got := Spearman(x, y); math.Abs(got-1) > 1e-9 {
		t.Errorf("Spearman with ties = %v, want 1", got)
	}
}

func TestCorrelationBounds(t *testing.T) {
	f := func(raw [10]float64, raw2 [10]float64) bool {
		x, y := raw[:], raw2[:]
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				x[i] = float64(i)
			}
			if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
				y[i] = float64(i * i)
			}
			x[i] = math.Mod(x[i], 1e6)
			y[i] = math.Mod(y[i], 1e6)
		}
		p := Pearson(x, y)
		s := Spearman(x, y)
		return p >= -1.0000001 && p <= 1.0000001 && s >= -1.0000001 && s <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Errorf("Summarize wrong: %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Error("empty summary must have N=0")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := Summarize([]float64{0, 10})
	if math.Abs(s.P50-5) > 1e-12 {
		t.Errorf("P50 = %v, want 5", s.P50)
	}
	if math.Abs(s.P90-9) > 1e-12 {
		t.Errorf("P90 = %v, want 9", s.P90)
	}
}

// JaccardGeneralized returns the Jaccard distance treating each position as
// a set element with a categorical value: positions disagreeing count
// against similarity. This matches "each element indicates if a specific
// control flow is taken or not" for multi-way decisions.
func JaccardGeneralized(a, b []int) float64 {
	if len(a) != len(b) {
		panic("metrics: JaccardGeneralized length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return 1 - float64(same)/float64(len(a))
}
