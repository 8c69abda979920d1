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

	// SGD momentum buffers, allocated lazily on first training step.
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

// Infer runs inference like Forward but allocates fresh activation buffers
// instead of using the MLP's shared scratch, so any number of Infer calls may
// run concurrently on one MLP (the weights are read-only here). Training
// (TrainStep) must not run concurrently with Infer.
func (m *MLP) Infer(in []float64) []float64 {
	return m.InferInto(in, make([]float64, m.InferScratchLen()))
}

// InferScratchLen returns the scratch length InferInto needs: one element
// per output of every layer.
func (m *MLP) InferScratchLen() int {
	n := 0
	for _, l := range m.Layers {
		n += l.Out
	}
	return n
}

// InferInto runs inference like Infer but keeps every layer's activations in
// the caller's scratch (at least InferScratchLen long), so a caller that
// reuses its scratch runs inference without allocating. The returned output
// is a sub-slice of scratch, valid until the scratch is reused.
func (m *MLP) InferInto(in, scratch []float64) []float64 {
	if len(in) != m.InputSize() {
		panic(fmt.Sprintf("nn: Infer input width %d, want %d", len(in), m.InputSize())) //dynnlint:ignore panicfree width mismatch is a caller bug; hot-path kernel fails fast like stdlib
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

	// Backpropagate deltas down to the first unfrozen layer.
	for li := last; li > from; li-- {
		l := m.Layers[li]
		mathx.MatVecT(l.W, l.Out, l.In, m.deltas[li], m.deltas[li-1])
		prev := m.acts[li]
		for i := range m.deltas[li-1] {
			m.deltas[li-1][i] *= m.Layers[li-1].Act.deriv(prev[i])
		}
	}
	// Momentum update on the unfrozen layers.
	for li := from; li < len(m.Layers); li++ {
		l := m.Layers[li]
		if l.vW == nil {
			l.vW = make([]float64, len(l.W))
			l.vB = make([]float64, len(l.B))
		}
		in := m.acts[li]
		if momentum > 0 {
			mathx.Scale(momentum, l.vW)
			mathx.Scale(momentum, l.vB)
			mathx.OuterAxpy(-lr, m.deltas[li], in, l.vW)
			mathx.Axpy(-lr, m.deltas[li], l.vB)
			mathx.Axpy(1, l.vW, l.W)
			mathx.Axpy(1, l.vB, l.B)
		} else {
			mathx.OuterAxpy(-lr, m.deltas[li], in, l.W)
			mathx.Axpy(-lr, m.deltas[li], l.B)
		}
	}
	return loss
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

// Clone returns a deep copy (scratch buffers not shared).
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
