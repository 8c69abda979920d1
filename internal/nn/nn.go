// Package nn implements the small neural-network machinery the pilot model
// is built from: fully-connected layers, activations (the paper's pilot uses
// LeakyReLU), SGD training, and a genetic hyper-parameter tuner (§V). It is
// deliberately minimal — the pilot model has ~3k parameters — but it is a
// real, trainable network: Table IV and Fig 11 are measured from it.
package nn

import (
	"fmt"
	"math"

	"dynnoffload/internal/mathx"
)

// Activation selects the nonlinearity applied after each hidden layer.
type Activation int

const (
	LeakyReLU Activation = iota
	ReLU
	Tanh
	Sigmoid
	Identity
)

func (a Activation) String() string {
	switch a {
	case LeakyReLU:
		return "leakyrelu"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	case Identity:
		return "identity"
	}
	return fmt.Sprintf("activation(%d)", int(a))
}

const leakySlope = 0.01

func (a Activation) apply(x float64) float64 {
	switch a {
	case LeakyReLU:
		if x < 0 {
			return leakySlope * x
		}
		return x
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Identity:
		return x
	}
	panic("nn: unknown activation") //dynnlint:ignore panicfree unknown activation is unreachable for the fixed enum; guards future edits
}

// deriv is the derivative expressed in terms of the activation output y.
func (a Activation) deriv(y float64) float64 {
	switch a {
	case LeakyReLU:
		if y < 0 {
			return leakySlope
		}
		return 1
	case ReLU:
		if y <= 0 {
			return 0
		}
		return 1
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	case Identity:
		return 1
	}
	panic("nn: unknown activation") //dynnlint:ignore panicfree unknown activation is unreachable for the fixed enum; guards future edits
}

// Layer is one fully-connected layer: out = act(Wᵀ·in + b). W is stored
// In×Out row-major, the layout mathx.MatVecT reads, so the forward pass,
// backpropagation and the weight update all walk it row by row.
type Layer struct {
	In, Out int
	W       []float64 // In×Out row-major: W[c*Out+r] weighs input c into output r
	B       []float64 // Out
	Act     Activation

	// SGD momentum buffers, allocated on the first step with momentum > 0;
	// plain SGD (momentum 0) never reads them, so it leaves them nil.
	vW, vB []float64
}

// NewLayer creates a layer with Kaiming-style initialization from rng,
// drawing the weights output by output (every input of output 0 first).
func NewLayer(in, out int, act Activation, rng *mathx.RNG) *Layer {
	l := &Layer{In: in, Out: out, Act: act,
		W: make([]float64, in*out), B: make([]float64, out)}
	sigma := math.Sqrt(2 / float64(in))
	for r := 0; r < out; r++ {
		for c := 0; c < in; c++ {
			l.W[c*out+r] = rng.Norm() * sigma
		}
	}
	return l
}

// Params returns the number of trainable parameters.
func (l *Layer) Params() int { return len(l.W) + len(l.B) }

// Forward computes the layer output into out (length Out). It only reads
// the layer, so any number of Forward calls may run at once. The pilot's
// two activations, LeakyReLU and Identity, run as loops of their own, with
// apply's arithmetic but no per-element switch.
func (l *Layer) Forward(in, out []float64) {
	mathx.MatVecT(l.W, l.In, l.Out, in, out)
	b := l.B[:len(out)]
	switch l.Act {
	case LeakyReLU:
		for i, v := range out {
			v += b[i]
			if v < 0 {
				v = leakySlope * v
			}
			out[i] = v
		}
	case Identity:
		for i := range out {
			out[i] += b[i]
		}
	default:
		for i := range out {
			out[i] = l.Act.apply(out[i] + b[i])
		}
	}
}

// MLP is a stack of fully-connected layers. Hidden layers share one
// activation; the final layer uses Identity so the network can regress
// unbounded block descriptors.
type MLP struct {
	Layers []*Layer
	// scratch activations, one slice per layer output plus the input.
	acts   [][]float64
	deltas [][]float64
}

// NewMLP builds an MLP with the given layer sizes (sizes[0] is the input
// width). All hidden layers use act; the output layer is linear.
func NewMLP(sizes []int, act Activation, rng *mathx.RNG) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes") //dynnlint:ignore panicfree malformed layer spec is a caller bug at model-construction time
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		a := act
		if i == len(sizes)-2 {
			a = Identity
		}
		m.Layers = append(m.Layers, NewLayer(sizes[i], sizes[i+1], a, rng))
	}
	m.initScratch()
	return m
}

func (m *MLP) initScratch() {
	m.acts = make([][]float64, len(m.Layers)+1)
	m.deltas = make([][]float64, len(m.Layers))
	m.acts[0] = make([]float64, m.Layers[0].In)
	for i, l := range m.Layers {
		m.acts[i+1] = make([]float64, l.Out)
		m.deltas[i] = make([]float64, l.Out)
	}
}

// InputSize returns the expected input width.
func (m *MLP) InputSize() int { return m.Layers[0].In }

// Params returns the total number of trainable parameters.
func (m *MLP) Params() int {
	n := 0
	for _, l := range m.Layers {
		n += l.Params()
	}
	return n
}

// Forward runs inference, returning an internal slice valid until the next
// Forward/Train call on this MLP. Copy it if you need to keep it.
func (m *MLP) Forward(in []float64) []float64 {
	if len(in) != m.InputSize() {
		panic(fmt.Sprintf("nn: Forward input width %d, want %d", len(in), m.InputSize())) //dynnlint:ignore panicfree width mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	copy(m.acts[0], in)
	for i, l := range m.Layers {
		l.Forward(m.acts[i], m.acts[i+1])
	}
	return m.acts[len(m.acts)-1]
}

// ScratchLen returns the scratch length Run needs: one element per output
// of every layer.
func (m *MLP) ScratchLen() int {
	n := 0
	for _, l := range m.Layers {
		n += l.Out
	}
	return n
}

// Run computes the network's output for in like Forward, but keeps every
// layer's activations in the caller's scratch (at least ScratchLen long)
// and writes nothing to the MLP, so any number of Run calls may share it
// while no training step runs. The returned output is a sub-slice of
// scratch, valid until the scratch is reused.
func (m *MLP) Run(in, scratch []float64) []float64 {
	if len(in) != m.InputSize() {
		panic(fmt.Sprintf("nn: Run input width %d, want %d", len(in), m.InputSize())) //dynnlint:ignore panicfree width mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	cur := in
	for _, l := range m.Layers {
		out := scratch[:l.Out]
		scratch = scratch[l.Out:]
		l.Forward(cur, out)
		cur = out
	}
	return cur
}

// gradClip bounds the output-delta norm per training step, preventing
// divergence at large hidden widths.
const gradClip = 4.0

// TrainStep performs one SGD-with-momentum step on (in, target) with MSE
// loss and returns the pre-update loss.
func (m *MLP) TrainStep(in, target []float64, lr, momentum float64) float64 {
	return m.TrainStepFrom(in, target, lr, momentum, 0)
}

// TrainStepFrom performs one SGD-with-momentum step like TrainStep but
// updates only layers with index >= from, leaving the earlier layers frozen.
// The full forward pass still runs (frozen layers shape the activations);
// backpropagation stops at layer from, since no earlier gradient is needed.
// from = 0 is a full TrainStep; from = len(Layers)-1 fine-tunes the head
// only — the online per-tenant adapter path.
func (m *MLP) TrainStepFrom(in, target []float64, lr, momentum float64, from int) float64 {
	out := m.Forward(in)
	if len(target) != len(out) {
		panic("nn: TrainStep target width mismatch") //dynnlint:ignore panicfree width mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	if from < 0 || from >= len(m.Layers) {
		panic("nn: TrainStepFrom layer index out of range") //dynnlint:ignore panicfree bad freeze point is a caller bug; fail fast like the width checks
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

	// Walk the unfrozen layers top down. Each backpropagates its deltas into
	// the layer below with its pre-update weights as it takes its step; no
	// layer's update feeds another's, so the order of the updates does not
	// matter.
	for li := last; li >= from; li-- {
		l := m.Layers[li]
		var below []float64
		if li > from {
			below = m.deltas[li-1]
		}
		if momentum > 0 && l.vW == nil {
			l.vW = make([]float64, len(l.W))
			l.vB = make([]float64, len(l.B))
		}
		l.step(m.deltas[li], m.acts[li], below, lr, momentum)
		if below != nil {
			prev := m.acts[li]
			for i := range below {
				below[i] *= m.Layers[li-1].Act.deriv(prev[i])
			}
		}
	}
	return loss
}

// step is one SGD update of the layer, with momentum mo when mo > 0 and
// plain otherwise, in a single pass over its weight rows, given the layer's
// deltas and its input x. When below is non-nil it also receives the
// backpropagated deltas W·delta (before the activation derivative), taken
// from the weights as they were before this step. Element for element it
// performs, in the same order, the operations of separate passes of
// MatVecT into below, Scale(mo) of the velocities, an outer-product axpy
// and an axpy of -lr·delta·x into them (or, without momentum, into W and
// B), and an axpy of the velocities into W and B, so the result is
// bit-identical to them (fused_oracle_test.go keeps those passes):
//
//   - below[c] sums w·delta[r] over r in order from +0, and an output whose
//     delta is exactly 0 adds nothing to it and leaves v·mo (without
//     momentum, w) as it is, as MatVecT and the outer-product pass skip it;
//   - v·mo is rounded on its own (the float64 conversion), so no platform
//     fuses it with the following add into one multiply-add.
//
// The weights' momentum update is mathx.MomentumStep, which runs four rows
// at a time in AVX assembly where the CPU has it.
func (l *Layer) step(delta, x, below []float64, lr, mo float64) {
	n, nlr := len(delta), -lr
	for r, d := range delta {
		if mo > 0 {
			l.vB[r] = float64(l.vB[r]*mo) + nlr*d
			l.B[r] += l.vB[r]
		} else {
			l.B[r] += nlr * d
		}
	}
	if mo > 0 {
		mathx.MomentumStep(l.W, l.vW, l.In, n, x, delta, below, nlr, mo)
		return
	}
	for c := 0; c < l.In; c++ {
		w, xc := l.W[c*n:][:n], x[c]
		var s float64
		for r, d := range delta {
			if d != 0 {
				s += w[r] * d
				w[r] += nlr * d * xc
			}
		}
		if below != nil {
			below[c] = s
		}
	}
}

// Clone returns a deep copy of the weights (scratch buffers not shared) with
// no momentum: its first step with momentum starts from zero velocities, as
// a new MLP's does.
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		nl := &Layer{In: l.In, Out: l.Out, Act: l.Act,
			W: append([]float64(nil), l.W...), B: append([]float64(nil), l.B...)}
		c.Layers = append(c.Layers, nl)
	}
	c.initScratch()
	return c
}

// TakeMomentum moves src's SGD momentum velocities into m, which must have
// src's layer shapes, and leaves src without any. With Clone it copies an
// MLP in the middle of momentum training.
func (m *MLP) TakeMomentum(src *MLP) {
	for i, l := range m.Layers {
		s := src.Layers[i]
		l.vW, l.vB, s.vW, s.vB = s.vW, s.vB, nil, nil
	}
}
