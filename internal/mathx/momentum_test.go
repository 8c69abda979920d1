package mathx

import (
	"fmt"
	"math"
	"testing"
)

// momentumState is one MomentumStep's operands; the step writes w, v and
// below.
type momentumState struct {
	rows, cols     int
	w, v, x, delta []float64
	below          []float64 // nil: the head-only step, no backprop
	nlr, mo        float64
}

func (s *momentumState) clone() *momentumState {
	c := *s
	c.w = append([]float64(nil), s.w...)
	c.v = append([]float64(nil), s.v...)
	if s.below != nil {
		c.below = append([]float64(nil), s.below...)
	}
	return &c
}

// momentumInputs fills a rows×cols step with normal weights, velocities
// and inputs mixed with kernelInputs' special values, about one weight in
// forty ±Inf and one input in eight ±Inf or NaN, and deltas of which about
// one in three is ±0 and one in twelve NaN: a zero delta must keep an
// infinite weight or input out of every sum. below starts as NaN so a body
// that skips a store shows.
func momentumInputs(rng *RNG, rows, cols int, withBelow bool) *momentumState {
	w, x := kernelInputs(rng, rows, cols)
	v, _ := kernelInputs(rng, rows, cols)
	delta := make([]float64, cols)
	rng.NormVec(delta, 1)
	for i := range delta {
		switch rng.Intn(12) {
		case 0, 1:
			delta[i] = 0
		case 2, 3:
			delta[i] = math.Copysign(0, -1)
		case 4:
			delta[i] = math.NaN()
		}
	}
	for i := range w {
		if rng.Intn(40) == 0 {
			w[i] = math.Inf(1 - 2*rng.Intn(2))
		}
	}
	for i := range x {
		switch rng.Intn(24) {
		case 0:
			x[i] = math.Inf(1)
		case 1:
			x[i] = math.Inf(-1)
		case 2:
			x[i] = math.NaN()
		}
	}
	s := &momentumState{rows: rows, cols: cols, w: w, v: v, x: x, delta: delta, nlr: -0.05, mo: 0.9}
	if withBelow {
		s.below = make([]float64, rows)
		for i := range s.below {
			s.below[i] = math.NaN()
		}
	}
	return s
}

// checkMomentumStep runs MomentumStep on a copy of s with the pure-Go body
// and, where the CPU has AVX, on another with the assembly one (plus the Go
// tail), and requires w, v and below to agree bit for bit.
func checkMomentumStep(t *testing.T, s *momentumState) {
	t.Helper()
	if !haveAVX {
		momentumStepGo(s.w, s.v, 0, s.rows, s.cols, s.x, s.delta, s.below, s.nlr, s.mo)
		return
	}
	want, got := s.clone(), s.clone()
	momentumStepGo(want.w, want.v, 0, want.rows, want.cols, want.x, want.delta, want.below, want.nlr, want.mo)
	defer func() { useAVX = haveAVX }()
	useAVX = true
	MomentumStep(got.w, got.v, got.rows, got.cols, got.x, got.delta, got.below, got.nlr, got.mo)
	for _, f := range []struct {
		name      string
		got, want []float64
	}{{"w", got.w, want.w}, {"v", got.v, want.v}, {"below", got.below, want.below}} {
		for i := range f.want {
			if math.Float64bits(f.got[i]) != math.Float64bits(f.want[i]) {
				t.Fatalf("%d×%d (below %v): %s[%d] = %v (%#x), pure Go %v (%#x)", s.rows, s.cols, s.below != nil,
					f.name, i, f.got[i], math.Float64bits(f.got[i]), f.want[i], math.Float64bits(f.want[i]))
			}
		}
	}
}

// TestMomentumStepBodiesMatch crosses row counts that fill whole groups of
// four with column counts that fill whole blocks (the assembly alone) and,
// beside them, shapes with tail rows or an Out%4 ≠ 0 width (assembly plus
// the Go tail, or the Go body alone), each with and without below.
func TestMomentumStepBodiesMatch(t *testing.T) {
	if !haveAVX {
		t.Log("no AVX here: only the pure-Go body runs")
	}
	rng := NewRNG(31)
	shapes := [][2]int{}
	for _, rows := range []int{4, 8, 104, 128} {
		for _, cols := range []int{4, 8, 12, 100, 128} {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	shapes = append(shapes, [2]int{0, 4}, [2]int{4, 0}, [2]int{1, 4}, [2]int{5, 8}, [2]int{7, 100},
		[2]int{107, 128}, [2]int{128, 100}, [2]int{9, 5}, [2]int{128, 6})
	for _, sh := range shapes {
		for _, withBelow := range []bool{true, false} {
			t.Run(fmt.Sprintf("%dx%d/below=%v", sh[0], sh[1], withBelow), func(t *testing.T) {
				checkMomentumStep(t, momentumInputs(rng, sh[0], sh[1], withBelow))
			})
		}
	}
}

// FuzzMomentumStep feeds both bodies shapes up to 19×43, mostly with
// whole 4-wide output blocks, and finite weights, velocities, inputs,
// deltas, learning rate and momentum decoded from raw float64 bits, so
// signed zeros, subnormals and overflowing products all come up.
func FuzzMomentumStep(f *testing.F) {
	f.Add(byte(4), byte(8), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 0, 0, 0, 0, 0, 0, 0x80}, -0.01, 0.9, true)
	f.Add(byte(13), byte(100), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 1}, []byte{0x40, 0, 3}, -1e300, 1e10, false)
	f.Add(byte(0), byte(4), []byte{}, []byte{}, 0.0, 0.0, true)
	f.Fuzz(func(t *testing.T, r, c byte, wvBytes, xdBytes []byte, nlr, mo float64, withBelow bool) {
		rows, cols := int(r)%20, int(c)%44
		if c < 128 {
			cols &^= 3
		}
		if math.IsNaN(nlr) || math.IsInf(nlr, 0) || math.IsNaN(mo) || math.IsInf(mo, 0) {
			return
		}
		s := &momentumState{rows: rows, cols: cols, nlr: nlr, mo: mo,
			w: make([]float64, rows*cols), v: make([]float64, rows*cols),
			x: make([]float64, rows), delta: make([]float64, cols)}
		fillFinite(s.w, wvBytes)
		fillFinite(s.v, wvBytes[min(len(wvBytes), 3):])
		fillFinite(s.x, xdBytes)
		fillFinite(s.delta, xdBytes[min(len(xdBytes), 5):])
		if withBelow {
			s.below = make([]float64, rows)
		}
		checkMomentumStep(t, s)
	})
}
