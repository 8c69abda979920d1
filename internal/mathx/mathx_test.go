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
