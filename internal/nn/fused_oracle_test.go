package nn

import (
	"fmt"
	"math"
	"testing"

	"dynnoffload/internal/mathx"
)

// oracleTrainStepFrom is TrainStepFrom as it was before the fused step,
// kept as the test oracle for Layer.step: backpropagation first (MatVecT
// and the derivative, layer by layer down to from), then, layer by layer
// from the bottom up, Scale of the velocities, outerAxpy and axpy of the
// gradient into them, and axpy of the velocities into the weights. That
// arithmetic runs on Out×In row-major copies of the weights and velocities,
// the layout it was written for, which it writes back In×Out at the end.
func oracleTrainStepFrom(m *MLP, in, target []float64, lr, momentum float64, from int) float64 {
	out := m.Forward(in)
	type layer struct{ W, vW, B, vB []float64 }
	ls := make([]*layer, len(m.Layers))
	for li, l := range m.Layers {
		ls[li] = &layer{W: l.OutByIn(), B: l.B, vB: l.vB}
		if l.vW != nil {
			ls[li].vW = make([]float64, len(l.vW))
			transpose(ls[li].vW, l.vW, l.In, l.Out)
		}
	}
	last := len(m.Layers) - 1
	var loss float64
	for i, o := range out {
		d := o - target[i]
		loss += d * d
		m.deltas[last][i] = 2 * d * m.Layers[last].Act.deriv(o)
	}
	loss /= float64(len(out))
	if nrm := mathx.L2(m.deltas[last]); nrm > gradClip {
		mathx.Scale(gradClip/nrm, m.deltas[last])
	}

	// Backpropagate deltas down to the first unfrozen layer.
	for li := last; li > from; li-- {
		l, ol := m.Layers[li], ls[li]
		mathx.MatVecT(ol.W, l.Out, l.In, m.deltas[li], m.deltas[li-1])
		prev := m.acts[li]
		for i := range m.deltas[li-1] {
			m.deltas[li-1][i] *= m.Layers[li-1].Act.deriv(prev[i])
		}
	}
	// Momentum update on the unfrozen layers.
	for li := from; li < len(m.Layers); li++ {
		l := ls[li]
		in := m.acts[li]
		if momentum > 0 {
			if l.vW == nil {
				l.vW = make([]float64, len(l.W))
				l.vB = make([]float64, len(l.B))
			}
			mathx.Scale(momentum, l.vW)
			mathx.Scale(momentum, l.vB)
			outerAxpy(-lr, m.deltas[li], in, l.vW)
			axpy(-lr, m.deltas[li], l.vB)
			axpy(1, l.vW, l.W)
			axpy(1, l.vB, l.B)
		} else {
			outerAxpy(-lr, m.deltas[li], in, l.W)
			axpy(-lr, m.deltas[li], l.B)
		}
	}
	for li, l := range m.Layers {
		l.SetOutByIn(ls[li].W)
		if ls[li].vW != nil {
			l.vW, l.vB = make([]float64, len(l.W)), ls[li].vB
			transpose(l.vW, ls[li].vW, l.Out, l.In)
		}
	}
	return loss
}

// axpy computes y += alpha*x in place.
func axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// outerAxpy computes A += alpha * x·yᵀ where A is len(x)×len(y) row-major,
// skipping the rows whose x is 0.
func outerAxpy(alpha float64, x, y, a []float64) {
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

func TestAxpyScale(t *testing.T) {
	y := []float64{1, 1}
	axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("axpy gave %v", y)
	}
	mathx.Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Errorf("Scale gave %v", y)
	}
}

func TestOuterAxpy(t *testing.T) {
	a := make([]float64, 4)
	outerAxpy(2, []float64{1, 2}, []float64{3, 4}, a)
	want := []float64{6, 8, 12, 16}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("outerAxpy[%d] = %v, want %v", i, a[i], want[i])
		}
	}
}

// sameBits reports the first element where two slices differ bit for bit.
func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// TestFusedTrainStepMatchesOracle pins TrainStepFrom to the unfused oracle
// bit for bit — weights, biases, and every loss, plus both velocities with
// momentum — over several epochs, for a full step (from = 0), a head-only
// step (from = last) and one in between, with and without momentum. Plain
// SGD (momentum 0) never reads velocities, so there they must stay nil.
// ReLU hidden layers and targets copied from the current output make many
// deltas exactly 0, so the zero-row skips are exercised on every layer.
// Three shapes: a small one; the pilot's (107-128-128-100), whose hidden
// layers run mathx.MomentumStep's AVX body, with three Go tail rows below
// the first; and one whose 9-input layer leaves a single odd tail row and
// whose 9- and 6-wide layers (Out%4 ≠ 0) run the Go body alone.
func TestFusedTrainStepMatchesOracle(t *testing.T) {
	for _, sizes := range [][]int{{7, 16, 12, 5}, {107, 128, 128, 100}, {13, 9, 16, 6}} {
		t.Run(fmt.Sprint(sizes), func(t *testing.T) { fusedMatchesOracle(t, sizes) })
	}
}

func fusedMatchesOracle(t *testing.T, sizes []int) {
	const epochs, samples = 4, 24
	data := mathx.NewRNG(3)
	ins := make([][]float64, samples)
	for i := range ins {
		ins[i] = make([]float64, sizes[0])
		data.NormVec(ins[i], 1)
	}
	nOut := sizes[len(sizes)-1]
	for _, act := range []Activation{ReLU, LeakyReLU} {
		base := NewMLP(sizes, act, mathx.NewRNG(9))
		last := len(base.Layers) - 1
		for _, from := range []int{0, 1, last} {
			for _, momentum := range []float64{0.9, 0} {
				got, want := base.Clone(), base.Clone()
				zeroRows := 0
				for e := 0; e < epochs; e++ {
					for i, in := range ins {
						target := make([]float64, nOut)
						data.NormVec(target, 2)
						// Half the samples ask for the output they already
						// give on some columns: those output deltas are 0.
						if i%2 == 0 {
							out := want.Forward(in)
							copy(target[:2+i%3], out)
						}
						lg := got.TrainStepFrom(in, target, 0.05, momentum, from)
						lw := oracleTrainStepFrom(want, in, target, 0.05, momentum, from)
						where := fmt.Sprintf("%v from=%d momentum=%v epoch %d sample %d", act, from, momentum, e, i)
						if math.Float64bits(lg) != math.Float64bits(lw) {
							t.Fatalf("%s: loss %v, oracle %v", where, lg, lw)
						}
						for li := from; li <= last; li++ {
							for _, d := range want.deltas[li] {
								if d == 0 {
									zeroRows++
								}
							}
						}
						for li := range want.Layers {
							g, w := got.Layers[li], want.Layers[li]
							errs := []error{sameBits("W", g.W, w.W), sameBits("B", g.B, w.B)}
							if momentum > 0 {
								errs = append(errs, sameBits("vW", g.vW, w.vW), sameBits("vB", g.vB, w.vB))
							} else if g.vW != nil || g.vB != nil {
								errs = append(errs, fmt.Errorf("plain SGD allocated velocities (%d, %d)", len(g.vW), len(g.vB)))
							}
							for _, err := range errs {
								if err != nil {
									t.Fatalf("%s: layer %d: %v", where, li, err)
								}
							}
						}
					}
				}
				if zeroRows == 0 {
					t.Fatalf("%v from=%d: no delta was exactly 0 — the skip paths went untested", act, from)
				}
			}
		}
	}
}

// OutByIn returns a copy of the weights transposed to Out×In row-major,
// the order NewLayer draws them in.
func (l *Layer) OutByIn() []float64 {
	w := make([]float64, len(l.W))
	transpose(w, l.W, l.In, l.Out)
	return w
}

// SetOutByIn sets the weights from w, which is Out×In row-major.
func (l *Layer) SetOutByIn(w []float64) { transpose(l.W, w, l.Out, l.In) }

// transpose writes src, rows×cols row-major, into dst as cols×rows.
func transpose(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}
