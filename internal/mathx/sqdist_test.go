package mathx

import (
	"math"
	"testing"
)

// sqDistWidths are the vector lengths the SqDist16 tests cross: none, one,
// less than a row, a row and a partial one, a pilot label (100) and widths
// around it.
var sqDistWidths = []int{0, 1, 7, 10, 23, 100, 127}

// sqDistBody is one SqDist16 body.
type sqDistBody struct {
	name string
	fn   func(block, pred []float64, rowLen int, bound float64, out *[Lanes]float64) bool
}

// naiveSqDist16 is the oracle: each lane's distance summed left to right in
// full, then the abandon decision replayed from the partial sums at every
// row boundary.
func naiveSqDist16(block, pred []float64, rowLen int, bound float64) (sums [Lanes]float64, abandoned bool) {
	for k, v := range pred {
		for l := range sums {
			t := v - block[k*Lanes+l]
			sums[l] += t * t
		}
		if (k+1)%rowLen == 0 || k == len(pred)-1 {
			done := true
			for _, s := range sums {
				done = done && s >= bound
			}
			if done {
				return sums, true
			}
		}
	}
	return sums, false
}

// checkSqDist16 runs both SqDist16 bodies on (block, pred), the AVX one only
// where the CPU has AVX, and requires each to equal the oracle: the same
// abandon decision and, bit for bit, the same sums. out starts as NaN so a
// body that skips a store shows; any two NaNs count as equal, as x86 keeps
// the first operand's payload and the compiler may order an add either way.
func checkSqDist16(t *testing.T, block, pred []float64, rowLen int, bound float64) {
	t.Helper()
	want, wantAb := naiveSqDist16(block, pred, rowLen, bound)
	bodies := []sqDistBody{{"go", sqDist16Go}}
	if haveAVX {
		bodies = append(bodies, sqDistBody{"avx", sqDist16AVX})
	}
	for _, b := range bodies {
		var got [Lanes]float64
		for l := range got {
			got[l] = math.NaN()
		}
		ab := b.fn(block, pred, min(rowLen, len(pred)), bound, &got)
		if ab != wantAb {
			t.Fatalf("%s body, width %d, row %d, bound %v: abandoned %v, oracle %v", b.name, len(pred), rowLen, bound, ab, wantAb)
		}
		for l := range want {
			g, w := got[l], want[l]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s body, width %d, row %d, bound %v: lane %d = %v (%#x), oracle %v (%#x)",
					b.name, len(pred), rowLen, bound, l, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// sqDistInputs draws a lane-interleaved block of 16 vectors of width w and a
// prediction. With near set, lane 5 is the prediction plus small noise, so
// a bound between its distance and the others' abandons nothing.
func sqDistInputs(rng *RNG, w int, near bool) (block, pred []float64) {
	block = make([]float64, Lanes*w)
	pred = make([]float64, w)
	rng.NormVec(block, 1)
	rng.NormVec(pred, 1)
	if near {
		for k := range pred {
			block[k*Lanes+5] = pred[k] + 0.01*rng.Norm()
		}
	}
	return block, pred
}

// TestSqDist16BodiesMatch crosses the widths with a NaN bound (never
// abandons), a bound every lane passes at once (abandons after the first
// row), one only a near lane stays under (never abandons) and one the full
// sums cross (abandons part way), and inputs laced with ±Inf and NaN.
func TestSqDist16BodiesMatch(t *testing.T) {
	if !haveAVX {
		t.Log("no AVX here: only the pure-Go body is checked")
	}
	rng := NewRNG(29)
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64}
	for _, w := range sqDistWidths {
		for _, near := range []bool{false, true} {
			block, pred := sqDistInputs(rng, w, near)
			for _, rowLen := range []int{1, 3, 10, 1000} {
				for _, bound := range []float64{math.NaN(), 0, 0.5, float64(w), math.Inf(1)} {
					checkSqDist16(t, block, pred, rowLen, bound)
				}
			}
			for i := range block {
				if rng.Intn(7) == 0 {
					block[i] = specials[rng.Intn(len(specials))]
				}
			}
			for i := range pred {
				if rng.Intn(11) == 0 {
					pred[i] = specials[rng.Intn(len(specials))]
				}
			}
			for _, bound := range []float64{math.NaN(), 0, float64(w), math.Inf(1), math.Inf(-1)} {
				checkSqDist16(t, block, pred, 10, bound)
			}
		}
		// Every lane's first-row sum equals the bound exactly: >= abandons
		// there, > would run on.
		pred := make([]float64, w)
		for k := range pred {
			pred[k] = 1
		}
		checkSqDist16(t, make([]float64, Lanes*w), pred, 10, float64(min(10, w)))
	}
}

// TestSqDist16Dispatch checks that SqDist16 runs the body useAVX selects,
// both settings giving the same bits and the same abandon decision, and that
// it leaves useAVX at haveAVX.
func TestSqDist16Dispatch(t *testing.T) {
	if useAVX != haveAVX {
		t.Fatalf("useAVX = %v, haveAVX = %v", useAVX, haveAVX)
	}
	defer func() { useAVX = haveAVX }()
	rng := NewRNG(5)
	block, pred := sqDistInputs(rng, 100, true)
	for _, bound := range []float64{math.NaN(), 1} {
		var outs [2][Lanes]float64
		var abs [2]bool
		for i, avx := range []bool{false, haveAVX} {
			useAVX = avx
			abs[i] = SqDist16(block, pred, 10, bound, &outs[i])
		}
		if abs[0] != abs[1] {
			t.Fatalf("bound %v: abandoned: pure Go %v, useAVX=%v %v", bound, abs[0], haveAVX, abs[1])
		}
		for l := range outs[0] {
			if math.Float64bits(outs[0][l]) != math.Float64bits(outs[1][l]) {
				t.Fatalf("bound %v: out[%d]: pure Go %v, useAVX=%v %v", bound, l, outs[0][l], haveAVX, outs[1][l])
			}
		}
	}
}

// FuzzSqDist16 feeds both bodies widths up to 130, row lengths up to 16 and
// bounds and elements decoded from single bytes onto a coarse grid, so ties
// with the bound, ±Inf and NaN all come up.
func FuzzSqDist16(f *testing.F) {
	f.Add(byte(100), byte(10), byte(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 0x80, 9})
	f.Add(byte(23), byte(7), byte(0x82), []byte{0x81, 0, 0x82}, []byte{4})
	f.Add(byte(0), byte(1), byte(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, w, row, b byte, blockBytes, predBytes []byte) {
		width, rowLen := int(w)%131, 1+int(row)%16
		block := make([]float64, Lanes*width)
		pred := make([]float64, width)
		fillGrid(block, blockBytes)
		fillGrid(pred, predBytes)
		checkSqDist16(t, block, pred, rowLen, gridValue(b)*16)
	})
}

// gridValue maps a byte onto multiples of 1/8, or onto ±Inf or NaN.
func gridValue(b byte) float64 {
	switch b {
	case 0x80:
		return math.Inf(1)
	case 0x81:
		return math.Inf(-1)
	case 0x82:
		return math.NaN()
	}
	return float64(int8(b)) / 8
}

// fillGrid decodes src, cycled, into out through gridValue; an empty src
// leaves out zero.
func fillGrid(out []float64, src []byte) {
	for i := range out {
		if len(src) > 0 {
			out[i] = gridValue(src[i%len(src)])
		}
	}
}
