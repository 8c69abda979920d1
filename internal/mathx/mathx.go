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

// useAVX selects the assembly bodies of MatVecT, SqDist16 and
// MomentumStep. It is haveAVX; tests clear it to run the pure-Go bodies on
// an AVX host.
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

// MomentumStep is the weight half of one SGD-with-momentum step of a
// fully-connected layer: w and its velocities v are rows×cols row-major
// (In×Out, w[c*cols+r] weighs input c into output r), x is the layer's
// input and delta its output deltas. For every weight it computes
//
//	a = v·mo;  a += (nlr·delta[r])·x[c];  v = a;  w += a
//
// where an output whose delta is exactly 0 skips the gradient term, and,
// when below is non-nil, below[c] = Σ_r w·delta[r] over the weights as they
// were before the step, summed in order from +0 and skipping the same
// outputs. v·mo is rounded on its own (the float64 conversion), so no
// platform fuses it with the following add.
//
// On amd64 CPUs with AVX, when cols is a multiple of 4, the rows go four at
// a time through assembly and the last rows%4 through the pure-Go body;
// rows are independent, and the assembly rounds every product and sum the
// Go body rounds, in its order, so the bits are the same. (The assembly
// subtracts (−nlr·d)·x where the Go body adds (nlr·d)·x; that would flip
// the sign of a NaN nlr, so a NaN nlr stays on the Go body.)
func MomentumStep(w, v []float64, rows, cols int, x, delta, below []float64, nlr, mo float64) {
	if len(w) != rows*cols || len(v) != rows*cols || len(x) != rows || len(delta) != cols ||
		(below != nil && len(below) != rows) {
		panic("mathx: MomentumStep shape mismatch") //dynnlint:ignore panicfree shape mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	c := 0
	if useAVX && cols%4 == 0 && !math.IsNaN(nlr) {
		c = rows &^ 3
		momentumStepAVX(w, v, c, cols, x, delta, below, -nlr, mo)
	}
	momentumStepGo(w, v, c, rows, cols, x, delta, below, nlr, mo)
}

// momentumStepGo is MomentumStep's pure-Go body from row c on, and the
// oracle for the assembly one. It walks two rows per pass, so their backprop
// sums are two independent add chains that the CPU overlaps, and keeps the
// a += f·x shape, so a GOARCH that fuses multiply-adds (arm64) fuses here
// exactly where a separate outer-product pass would.
func momentumStepGo(w, v []float64, c, rows, n int, x, delta, below []float64, nlr, mo float64) {
	for ; c+2 <= rows; c += 2 {
		w0, w1 := w[c*n:][:n], w[(c+1)*n:][:n]
		v0, v1 := v[c*n:][:n], v[(c+1)*n:][:n]
		x0, x1 := x[c], x[c+1]
		var s0, s1 float64
		for r, d := range delta {
			a0, a1 := float64(v0[r]*mo), float64(v1[r]*mo)
			if d != 0 {
				s0 += w0[r] * d
				s1 += w1[r] * d
				f := nlr * d
				a0 += f * x0
				a1 += f * x1
			}
			v0[r], v1[r] = a0, a1
			w0[r] += a0
			w1[r] += a1
		}
		if below != nil {
			below[c], below[c+1] = s0, s1
		}
	}
	if c < rows { // the last row of an odd-height layer
		wc, vc, xc := w[c*n:][:n], v[c*n:][:n], x[c]
		var s float64
		for r, d := range delta {
			if d == 0 {
				vc[r] *= mo
			} else {
				s += wc[r] * d
				vc[r] = float64(vc[r]*mo) + nlr*d*xc
			}
			wc[r] += vc[r]
		}
		if below != nil {
			below[c] = s
		}
	}
}

// Lanes is the number of vectors SqDist16 scores in one pass.
const Lanes = 16

// SqDist16 writes into out the squared Euclidean distances from pred to 16
// vectors of len(pred) elements each, which block holds lane-interleaved:
// element k of vector ℓ is block[k*Lanes+ℓ]. It is the pilot's output→path
// match, one group of 16 candidate paths per call.
//
// Each distance is summed over the elements in order, from +0, as
// d += t*t with t = pred[k] − block[k*Lanes+ℓ], every product rounded
// before it is added, so the bits are those of a plain left-to-right loop.
// At every rowLen-element boundary, and at the end, the call stops and
// reports abandoned once all 16 partial sums are >= bound: the remaining
// terms are non-negative and rounding is monotone, so no full sum could end
// strictly below bound. out then holds the partial sums. A NaN bound never
// abandons. On amd64 CPUs with AVX it runs as assembly that keeps the 16
// sums in four vector registers; the subtract, multiply and add stay
// separate instructions, so the bits are those of the pure-Go body.
func SqDist16(block, pred []float64, rowLen int, bound float64, out *[Lanes]float64) (abandoned bool) {
	if len(block) != Lanes*len(pred) || rowLen < 1 {
		panic("mathx: SqDist16 shape mismatch") //dynnlint:ignore panicfree shape mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	rowLen = min(rowLen, len(pred)) // one row either way; keeps row ends from overflowing
	if useAVX {
		return sqDist16AVX(block, pred, rowLen, bound, out)
	}
	return sqDist16Go(block, pred, rowLen, bound, out)
}

// sqDist16Go is SqDist16's pure-Go body and the oracle for the assembly
// one. It keeps the d += t*t shape, so a GOARCH that fuses multiply-adds
// fuses here exactly where a plain distance loop does.
func sqDist16Go(block, pred []float64, rowLen int, bound float64, out *[Lanes]float64) bool {
	var d [Lanes]float64
	for j := 0; j < len(pred); j += rowLen {
		for k := j; k < min(j+rowLen, len(pred)); k++ {
			v := pred[k]
			for l, x := range block[k*Lanes : (k+1)*Lanes] {
				t := v - x
				d[l] += t * t
			}
		}
		if allAtLeast(&d, bound) {
			*out = d
			return true
		}
	}
	*out = d
	return false
}

// allAtLeast reports whether every d[l] >= bound; NaNs compare false.
func allAtLeast(d *[Lanes]float64, bound float64) bool {
	for _, v := range d {
		if !(v >= bound) {
			return false
		}
	}
	return true
}

// L2 returns the Euclidean norm of x.
func L2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
