package mathx

// haveAVX reports whether this CPU runs AVX instructions and the OS saves
// the YMM registers across context switches. It is read once, at start-up.
var haveAVX = cpuHasAVX()

// cpuHasAVX checks CPUID leaf 1 for AVX and OSXSAVE, then XCR0 (via XGETBV)
// for the XMM and YMM state bits.
func cpuHasAVX() bool

// matVecTAVX is MatVecT's AVX body. It takes the shapes MatVecT has already
// checked.
//
//go:noescape
func matVecTAVX(a []float64, rows, cols int, x, out []float64)

// sqDist16AVX is SqDist16's AVX body. It takes the shapes SqDist16 has
// already checked.
//
//go:noescape
func sqDist16AVX(block, pred []float64, rowLen int, bound float64, out *[Lanes]float64) bool

// momentumStepAVX is MomentumStep's AVX body for the first rows rows, with
// lr = −nlr; rows and cols are multiples of 4 and MomentumStep has checked
// the shapes.
//
//go:noescape
func momentumStepAVX(w, v []float64, rows, cols int, x, delta, below []float64, lr, mo float64)
