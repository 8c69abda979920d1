// Package mathx provides the small dense linear-algebra kernels and the
// seeded RNG used by the pilot model and the evaluation harness. Everything
// is float64 and allocation-conscious; matrices are row-major.
package mathx

import "math"

// Dot returns the inner product of a and b. The slices must be equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch") //dynnlint:ignore panicfree shape mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// useAVX selects MatVecT's assembly body. It is haveAVX; tests clear it to
// run the pure-Go body on an AVX host.
var useAVX = haveAVX

// MatVecT computes out = Aᵀ·x where A is rows×cols row-major and x has rows
// elements; out has cols elements. It is the forward pass of every nn
// layer, whose weights are stored In×Out, in training and inference alike.
//
// Each out[c] is summed over the rows in order, from +0, with every product
// rounded before it is added; a row whose x[r] is ±0 is skipped, which
// changes no sum when A is finite (a sum started at +0 is never −0). Over
// the transpose of a matrix this is, element for element, the plain per-row
// dot product, so the two agree bit for bit. On amd64 CPUs with AVX
// it runs as assembly that keeps up to 32 sums in vector registers while it
// streams the rows; the multiply and the add stay separate instructions, so
// the bits are those of the pure-Go body, which other CPUs run.
func MatVecT(a []float64, rows, cols int, x, out []float64) {
	if len(a) != rows*cols || len(x) != rows || len(out) != cols {
		panic("mathx: MatVecT shape mismatch") //dynnlint:ignore panicfree shape mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	if useAVX {
		matVecTAVX(a, rows, cols, x, out)
		return
	}
	matVecTGo(a, rows, cols, x, out)
}

// matVecTGo is MatVecT's pure-Go body and the oracle for the assembly one.
// It keeps the out[c] += v*xr shape, so a GOARCH that fuses multiply-adds
// (arm64) fuses here exactly where it fuses a dot product's s += row[c]*xv.
func matVecTGo(a []float64, rows, cols int, x, out []float64) {
	for c := range out {
		out[c] = 0
	}
	for r := 0; r < rows; r++ {
		row := a[r*cols : (r+1)*cols]
		xr := x[r]
		if xr == 0 {
			continue
		}
		for c, v := range row {
			out[c] += v * xr
		}
	}
}

// L2 returns the Euclidean norm of x.
func L2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
