package mathx

import (
	"encoding/binary"
	"math"
	"testing"
)

// matVecTShapes are the row and column counts the kernel tests cross: the
// edges of every column block the AVX body takes (32, 16, 4 and 1 wide),
// the pilot's layer widths, and one large size.
var matVecTShapes = []int{0, 1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 107, 128, 1024}

// special holds the values the kernel inputs mix in beside normal ones:
// signed zeros, subnormals, and magnitudes whose products are subnormal.
var special = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), -math.Float64frombits(0x0008_0000_0000_0001),
	1e-160, -3e-162,
}

// kernelInputs fills a rows×cols matrix and a rows-long vector with normal
// values, about one in five of them replaced by an element of special;
// about one x entry in four is ±0.
func kernelInputs(rng *RNG, rows, cols int) (a, x []float64) {
	a = make([]float64, rows*cols)
	x = make([]float64, rows)
	rng.NormVec(a, 1)
	rng.NormVec(x, 3)
	for i := range a {
		if rng.Intn(5) == 0 {
			a[i] = special[rng.Intn(len(special))]
		}
	}
	for i := range x {
		switch rng.Intn(8) {
		case 0, 1:
			x[i] = special[i%2]
		case 2:
			x[i] = special[rng.Intn(len(special))]
		}
	}
	return a, x
}

// matVec computes out = A·x where A is rows×cols row-major: out[r] is the
// plain dot product of row r with x, summed left to right from +0. Over the
// transpose of a matrix it is the oracle both MatVecT bodies must match.
func matVec(a []float64, rows, cols int, x, out []float64) {
	for r := 0; r < rows; r++ {
		row := a[r*cols : (r+1)*cols]
		var s float64
		for c, xv := range x {
			s += row[c] * xv
		}
		out[r] = s
	}
}

func TestMatVec(t *testing.T) {
	// A = [[1,2],[3,4],[5,6]] (3x2), x = [1,1]
	a := []float64{1, 2, 3, 4, 5, 6}
	out := make([]float64, 3)
	matVec(a, 3, 2, []float64{1, 1}, out)
	want := []float64{3, 7, 11}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("matVec[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

type kernelBody struct {
	name string
	fn   func(a []float64, rows, cols int, x, out []float64)
}

// checkMatVecT runs both MatVecT bodies on (a, x), the AVX one only where
// the CPU has AVX, and requires each to equal, bit for bit, matVec over the
// transpose of a — the exactness contract pilot inference relies on. The
// outputs start as NaN so a body that skips a store shows.
func checkMatVecT(t *testing.T, rows, cols int, a, x []float64) {
	t.Helper()
	at := make([]float64, len(a))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			at[c*rows+r] = a[r*cols+c]
		}
	}
	want := make([]float64, cols)
	matVec(at, cols, rows, x, want)
	bodies := []kernelBody{{"go", matVecTGo}}
	if haveAVX {
		bodies = append(bodies, kernelBody{"avx", matVecTAVX})
	}
	for _, b := range bodies {
		got := make([]float64, cols)
		for i := range got {
			got[i] = math.NaN()
		}
		b.fn(a, rows, cols, x, got)
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("%s body, %d×%d: out[%d] = %v (%#x), matVec over the transpose %v (%#x)",
					b.name, rows, cols, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
			}
		}
	}
}

// TestMatVecTBodiesMatchMatVec crosses every shape in matVecTShapes.
func TestMatVecTBodiesMatchMatVec(t *testing.T) {
	if !haveAVX {
		t.Log("no AVX here: only the pure-Go body is checked")
	}
	rng := NewRNG(23)
	for _, rows := range matVecTShapes {
		for _, cols := range matVecTShapes {
			a, x := kernelInputs(rng, rows, cols)
			checkMatVecT(t, rows, cols, a, x)
		}
	}
}

// TestMatVecTDispatch checks that MatVecT runs the body useAVX selects,
// both settings giving the same bits, and that it leaves useAVX at haveAVX.
func TestMatVecTDispatch(t *testing.T) {
	if useAVX != haveAVX {
		t.Fatalf("useAVX = %v, haveAVX = %v", useAVX, haveAVX)
	}
	defer func() { useAVX = haveAVX }()
	rng := NewRNG(5)
	const rows, cols = 107, 100
	a, x := kernelInputs(rng, rows, cols)
	var outs [2][]float64
	for i, avx := range []bool{false, haveAVX} {
		useAVX = avx
		outs[i] = make([]float64, cols)
		MatVecT(a, rows, cols, x, outs[i])
	}
	for c := range outs[0] {
		if math.Float64bits(outs[0][c]) != math.Float64bits(outs[1][c]) {
			t.Fatalf("out[%d]: pure Go %v, useAVX=%v %v", c, outs[0][c], haveAVX, outs[1][c])
		}
	}
}

// FuzzMatVecT feeds both bodies shapes up to 39×69 (every column block
// and the scalar tail) and finite values decoded from raw float64 bits, so
// signed zeros, subnormals and overflowing products all come up.
func FuzzMatVecT(f *testing.F) {
	f.Add(byte(3), byte(37), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(byte(17), byte(69), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f}, []byte{0x40})
	f.Add(byte(0), byte(4), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, r, c byte, aBytes, xBytes []byte) {
		rows, cols := int(r)%40, int(c)%70
		a := make([]float64, rows*cols)
		x := make([]float64, rows)
		fillFinite(a, aBytes)
		fillFinite(x, xBytes)
		checkMatVecT(t, rows, cols, a, x)
	})
}

// fillFinite decodes src, cycled, as little-endian float64 bit patterns into
// out; a short tail is zero-padded and a NaN or an infinity becomes 0.
func fillFinite(out []float64, src []byte) {
	if len(src) == 0 {
		return
	}
	for i := range out {
		var b [8]byte
		off := (i * 8) % len(src)
		copy(b[:], src[off:])
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[i] = v
	}
}

// BenchmarkPilotLayers runs the pilot's three forward layers at 128
// neurons (107→128→128→100) through MatVecT over In×Out weights. The inputs
// are normal numbers: subnormal operands slow the kernel down manyfold.
func BenchmarkPilotLayers(b *testing.B) {
	rng := NewRNG(7)
	shapes := [][2]int{{107, 128}, {128, 128}, {128, 100}} // {in, out}
	var ws, xs, outs [3][]float64
	for i, sz := range shapes {
		ws[i], xs[i] = make([]float64, sz[0]*sz[1]), make([]float64, sz[0])
		rng.NormVec(ws[i], 1)
		rng.NormVec(xs[i], 1)
		outs[i] = make([]float64, sz[1])
	}
	for i := 0; i < b.N; i++ {
		for l, sz := range shapes {
			MatVecT(ws[l], sz[0], sz[1], xs[l], outs[l])
		}
	}
}
