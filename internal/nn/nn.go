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

// Layer is one fully-connected layer: out = act(W·in + b).
type Layer struct {
	In, Out int
	W       []float64 // Out×In row-major
	B       []float64 // Out
	Act     Activation

	// SGD momentum buffers, allocated on the first step with momentum > 0;
	// plain SGD (momentum 0) never reads them, so it leaves them nil.
	vW, vB []float64
}

// NewLayer creates a layer with Kaiming-style initialization from rng.
func NewLayer(in, out int, act Activation, rng *mathx.RNG) *Layer {
	l := &Layer{In: in, Out: out, Act: act,
		W: make([]float64, in*out), B: make([]float64, out)}
	sigma := math.Sqrt(2 / float64(in))
	rng.NormVec(l.W, sigma)
	return l
}

// Params returns the number of trainable parameters.
func (l *Layer) Params() int { return len(l.W) + len(l.B) }

// Forward computes the layer output into out (length Out).
func (l *Layer) Forward(in, out []float64) {
	mathx.MatVec(l.W, l.Out, l.In, in, out)
	for i := range out {
		out[i] = l.Act.apply(out[i] + l.B[i])
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
	// inf is the inference copy of the weights, nil until the first
	// SyncInference.
	inf *Inference
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

// OutputSize returns the output width.
func (m *MLP) OutputSize() int { return m.Layers[len(m.Layers)-1].Out }

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

// Inference is an MLP's inference copy: every layer's weights transposed to
// In×Out row-major for mathx.MatVecT, beside copies of its biases and its
// activation. MatVecT over the transpose takes, output for output, the same
// left-to-right sums from +0 of separately rounded products that
// Layer.Forward's MatVec takes over the row-major weights, so Run returns
// bit for bit what the Forward chain returns on the weights the copy was
// taken from; on amd64 with AVX it does so about three times faster.
//
// The copy changes only in MLP.SyncInference. Between syncs it is
// read-only, so any number of Run calls may share it; training does not
// touch it, so the MLP's owner syncs it after each round of weight updates.
type Inference struct {
	layers []inferLayer
}

type inferLayer struct {
	in, out int
	wt      []float64 // In×Out: the transpose of the layer's W
	b       []float64
	act     Activation
}

// Inference returns the MLP's inference copy as of the last SyncInference,
// or nil before the first.
func (m *MLP) Inference() *Inference { return m.inf }

// SyncInference rewrites the inference copy of layers from, from+1, … from
// their current weights, biases and activations, into the copy's existing
// buffers, so it allocates nothing; the first call allocates the copy and
// fills every layer whatever from is. Layers below from keep their copy:
// after TrainStepFrom(…, from) steps they are still current. It must not run
// concurrently with Run on the copy.
func (m *MLP) SyncInference(from int) {
	if m.inf == nil {
		m.inf = &Inference{layers: make([]inferLayer, len(m.Layers))}
		for i, l := range m.Layers {
			m.inf.layers[i] = inferLayer{in: l.In, out: l.Out,
				wt: make([]float64, len(l.W)), b: make([]float64, len(l.B))}
		}
		from = 0
	}
	for i := from; i < len(m.Layers); i++ {
		l, c := m.Layers[i], &m.inf.layers[i]
		for r := 0; r < l.Out; r++ {
			for k, w := range l.W[r*l.In : (r+1)*l.In] {
				c.wt[k*l.Out+r] = w
			}
		}
		copy(c.b, l.B)
		c.act = l.Act
	}
}

// InputSize returns the expected input width.
func (f *Inference) InputSize() int { return f.layers[0].in }

// ScratchLen returns the scratch length Run needs: one element per output
// of every layer.
func (f *Inference) ScratchLen() int {
	n := 0
	for _, l := range f.layers {
		n += l.out
	}
	return n
}

// Run computes the network's output for in, keeping every layer's
// activations in the caller's scratch (at least ScratchLen long), so a
// caller that reuses its scratch runs inference without allocating. The
// returned output is a sub-slice of scratch, valid until the scratch is
// reused.
func (f *Inference) Run(in, scratch []float64) []float64 {
	if len(in) != f.InputSize() {
		panic(fmt.Sprintf("nn: Run input width %d, want %d", len(in), f.InputSize())) //dynnlint:ignore panicfree width mismatch is a caller bug; hot-path kernel fails fast like stdlib
	}
	cur := in
	for i := range f.layers {
		l := &f.layers[i]
		out := scratch[:l.out]
		scratch = scratch[l.out:]
		mathx.MatVecT(l.wt, l.in, l.out, cur, out)
		for j := range out {
			out[j] = l.act.apply(out[j] + l.b[j])
		}
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
	// the layer below with its pre-update weights, then takes its momentum
	// step; no layer's update feeds another's, so the order of the updates
	// does not matter.
	for li := last; li >= from; li-- {
		l := m.Layers[li]
		var below []float64
		if li > from {
			below = m.deltas[li-1]
		}
		if momentum > 0 {
			if l.vW == nil {
				l.vW = make([]float64, len(l.W))
				l.vB = make([]float64, len(l.B))
			}
			l.momentumStep(m.deltas[li], m.acts[li], below, lr, momentum)
		} else {
			if below != nil {
				mathx.MatVecT(l.W, l.Out, l.In, m.deltas[li], below)
			}
			mathx.OuterAxpy(-lr, m.deltas[li], m.acts[li], l.W)
			mathx.Axpy(-lr, m.deltas[li], l.B)
		}
		if below != nil {
			prev := m.acts[li]
			for i := range below {
				below[i] *= m.Layers[li-1].Act.deriv(prev[i])
			}
		}
	}
	return loss
}

// momentumStep is one SGD-with-momentum update of the layer in a single pass
// over its weight rows, given the layer's deltas and its input x. When below
// is non-nil it first receives the backpropagated deltas W^T·delta (before
// the activation derivative), computed with the weights as they were before
// this step. Row by row it performs exactly the operations, in the same
// order, of MatVecT into below, Scale(m) of the velocities, OuterAxpy and
// Axpy of -lr·delta·x into them, and Axpy of the velocities into W and B,
// so the result is bit-identical to those separate passes:
//
//   - rows whose delta is exactly 0 add nothing to below and leave v·m
//     unchanged, as MatVecT and OuterAxpy skip them;
//   - v·m is rounded on its own (the float64 conversion), so no platform
//     fuses it with the following add into one multiply-add.
func (l *Layer) momentumStep(delta, x, below []float64, lr, m float64) {
	for c := range below {
		below[c] = 0
	}
	for r, d := range delta {
		w := l.W[r*l.In : (r+1)*l.In]
		v := l.vW[r*l.In : (r+1)*l.In][:len(w)]
		switch {
		case d == 0:
			for c := range w {
				v[c] = float64(v[c] * m)
				w[c] += v[c]
			}
		case below != nil:
			f, x, below := -lr*d, x[:len(w)], below[:len(w)]
			for c := range w {
				below[c] += w[c] * d
				v[c] = float64(v[c]*m) + f*x[c]
				w[c] += v[c]
			}
		default:
			f, x := -lr*d, x[:len(w)]
			for c := range w {
				v[c] = float64(v[c]*m) + f*x[c]
				w[c] += v[c]
			}
		}
		l.vB[r] = float64(l.vB[r]*m) + -lr*d
		l.B[r] += l.vB[r]
	}
}

// Loss returns the MSE of the network on (in, target) without updating.
func (m *MLP) Loss(in, target []float64) float64 {
	out := m.Forward(in)
	var loss float64
	for i, o := range out {
		d := o - target[i]
		loss += d * d
	}
	return loss / float64(len(out))
}

// Clone returns a deep copy of the weights (scratch buffers not shared) with
// no momentum: its first step with momentum starts from zero velocities, as
// a new MLP's does. When m has an inference copy, the clone gets its own,
// synced from the copied weights.
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		nl := &Layer{In: l.In, Out: l.Out, Act: l.Act,
			W: append([]float64(nil), l.W...), B: append([]float64(nil), l.B...)}
		c.Layers = append(c.Layers, nl)
	}
	c.initScratch()
	if m.inf != nil {
		c.SyncInference(0)
	}
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
