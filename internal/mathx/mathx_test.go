package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpyScale(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy gave %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Errorf("Scale gave %v", y)
	}
}

func TestMatVec(t *testing.T) {
	// A = [[1,2],[3,4],[5,6]] (3x2), x = [1,1]
	a := []float64{1, 2, 3, 4, 5, 6}
	out := make([]float64, 3)
	MatVec(a, 3, 2, []float64{1, 1}, out)
	want := []float64{3, 7, 11}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("MatVec[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

// TestMatVecMatchesNaiveDot pins MatVec's exactness contract: every output
// equals a plain left-to-right per-row dot product bit for bit, whatever
// rows % 4 leaves for the scalar tail.
func TestMatVecMatchesNaiveDot(t *testing.T) {
	rng := NewRNG(41)
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 128} {
		for _, cols := range []int{0, 1, 107} {
			a := make([]float64, rows*cols)
			x := make([]float64, cols)
			rng.NormVec(a, 1)
			rng.NormVec(x, 3)
			out := make([]float64, rows)
			MatVec(a, rows, cols, x, out)
			for r := 0; r < rows; r++ {
				var want float64
				for c := 0; c < cols; c++ {
					want += a[r*cols+c] * x[c]
				}
				if math.Float64bits(out[r]) != math.Float64bits(want) {
					t.Fatalf("rows=%d cols=%d: out[%d] = %v, naive dot %v", rows, cols, r, out[r], want)
				}
			}
		}
	}
}

func TestMatVecTIsTranspose(t *testing.T) {
	rng := NewRNG(1)
	rows, cols := 5, 7
	a := make([]float64, rows*cols)
	rng.NormVec(a, 1)
	x := make([]float64, rows)
	rng.NormVec(x, 1)
	got := make([]float64, cols)
	MatVecT(a, rows, cols, x, got)
	// naive transpose multiply
	for c := 0; c < cols; c++ {
		var want float64
		for r := 0; r < rows; r++ {
			want += a[r*cols+c] * x[r]
		}
		if !almostEq(got[c], want, 1e-12) {
			t.Fatalf("MatVecT[%d] = %v, want %v", c, got[c], want)
		}
	}
}

func TestOuterAxpy(t *testing.T) {
	a := make([]float64, 4)
	OuterAxpy(2, []float64{1, 2}, []float64{3, 4}, a)
	want := []float64{6, 8, 12, 16}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("OuterAxpy[%d] = %v, want %v", i, a[i], want[i])
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(raw [6]float64) bool {
		x := raw[:]
		for i := range x {
			x[i] = math.Mod(x[i], 50) // keep exp in range
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
		}
		out := make([]float64, len(x))
		Softmax(x, out)
		var sum float64
		for _, v := range out {
			if v < 0 {
				return false
			}
			sum += v
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Error("ArgMax wrong")
	}
	if ArgMax(nil) != -1 {
		t.Error("ArgMax(nil) must be -1")
	}
}

func TestMeanStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEq(Mean(x), 5, 1e-12) {
		t.Errorf("Mean = %v", Mean(x))
	}
	if !almostEq(Std(x), 2, 1e-12) {
		t.Errorf("Std = %v", Std(x))
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp wrong")
	}
}

func TestL2(t *testing.T) {
	if !almostEq(L2([]float64{3, 4}), 5, 1e-12) {
		t.Error("L2 wrong")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(7)
	f1 := r.Fork(1)
	f2 := r.Fork(2)
	same := 0
	for i := 0; i < 64; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked streams too correlated: %d/64 equal", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.08 {
		t.Errorf("Norm moments off: mean=%v var=%v", mean, variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}
