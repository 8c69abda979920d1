//go:build !amd64

package mathx

// haveAVX is false off amd64: MatVecT always runs its pure-Go body.
const haveAVX = false

// matVecTAVX stands in for the amd64 assembly body so that MatVecT builds
// on every GOARCH; it never runs, because useAVX is false here.
func matVecTAVX(a []float64, rows, cols int, x, out []float64) {
	matVecTGo(a, rows, cols, x, out)
}
