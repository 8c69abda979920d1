// Package mathx provides the small dense linear-algebra and statistics
// kernels used by the pilot model and the evaluation harness. Everything is
// float64 and allocation-conscious; matrices are row-major.
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

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mathx: Axpy length mismatch") //dynnlint:ignore panicfree shape mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// MatVec computes out = A·x where A is rows×cols row-major.
//
// Each out[r] is summed left to right over its row, exactly like a plain
// per-row dot product, so results are bit-identical to one. Four rows share a
// pass with four independent accumulators: the adds of different rows
// overlap in the pipeline instead of waiting on one serial chain. The rows
// are re-sliced to len(x) so the compiler drops the bounds checks.
func MatVec(a []float64, rows, cols int, x, out []float64) {
	if len(a) != rows*cols || len(x) != cols || len(out) != rows {
		panic("mathx: MatVec shape mismatch") //dynnlint:ignore panicfree shape mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		base := r * cols
		r0 := a[base : base+cols]
		r1 := a[base+cols : base+2*cols]
		r2 := a[base+2*cols : base+3*cols]
		r3 := a[base+3*cols : base+4*cols]
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		var s0, s1, s2, s3 float64
		for c, xv := range x {
			s0 += r0[c] * xv
			s1 += r1[c] * xv
			s2 += r2[c] * xv
			s3 += r3[c] * xv
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < rows; r++ {
		row := a[r*cols : (r+1)*cols][:len(x)]
		var s float64
		for c, xv := range x {
			s += row[c] * xv
		}
		out[r] = s
	}
}

// MatVecT computes out = Aᵀ·x where A is rows×cols row-major and x has rows
// elements; out has cols elements. Used for backpropagation.
func MatVecT(a []float64, rows, cols int, x, out []float64) {
	if len(a) != rows*cols || len(x) != rows || len(out) != cols {
		panic("mathx: MatVecT shape mismatch") //dynnlint:ignore panicfree shape mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
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

// OuterAxpy computes A += alpha * x·yᵀ where A is len(x)×len(y) row-major.
func OuterAxpy(alpha float64, x, y, a []float64) {
	if len(a) != len(x)*len(y) {
		panic("mathx: OuterAxpy shape mismatch") //dynnlint:ignore panicfree shape mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	cols := len(y)
	for r, xv := range x {
		if xv == 0 {
			continue
		}
		row := a[r*cols : (r+1)*cols]
		f := alpha * xv
		for c, yv := range y {
			row[c] += f * yv
		}
	}
}

// Softmax writes the softmax of x into out (may alias x).
func Softmax(x, out []float64) {
	if len(x) != len(out) {
		panic("mathx: Softmax length mismatch") //dynnlint:ignore panicfree shape mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	maxv := math.Inf(-1)
	for _, v := range x {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// ArgMax returns the index of the largest element, or -1 for empty input.
func ArgMax(x []float64) int {
	best, bi := math.Inf(-1), -1
	for i, v := range x {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// L2 returns the Euclidean norm of x.
func L2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
