//go:build !amd64

package mathx

// haveAVX is false off amd64: MatVecT, SqDist16 and MomentumStep always run
// their pure-Go bodies.
const haveAVX = false

// matVecTAVX stands in for the amd64 assembly body so that MatVecT builds
// on every GOARCH; it never runs, because useAVX is false here.
func matVecTAVX(a []float64, rows, cols int, x, out []float64) {
	matVecTGo(a, rows, cols, x, out)
}

// sqDist16AVX stands in for the amd64 assembly body so that SqDist16 builds
// on every GOARCH; it never runs, because useAVX is false here.
func sqDist16AVX(block, pred []float64, rowLen int, bound float64, out *[Lanes]float64) bool {
	return sqDist16Go(block, pred, rowLen, bound, out)
}

// momentumStepAVX stands in for the amd64 assembly body so that
// MomentumStep builds on every GOARCH; it never runs, because useAVX is
// false here.
func momentumStepAVX(w, v []float64, rows, cols int, x, delta, below []float64, lr, mo float64) {
	momentumStepGo(w, v, 0, rows, cols, x, delta, below, -lr, mo)
}
