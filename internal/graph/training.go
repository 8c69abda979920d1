package graph

import (
	"dynnoffload/internal/tensor"
)

// WeightState groups the persistent training state of one weight tensor:
// its gradient accumulator and optimizer moments. Models create these once;
// they are shared across samples (unlike activations).
type WeightState struct {
	Weight *tensor.Meta
	Grad   *tensor.Meta
	M, V   *tensor.Meta // Adam moments; nil for plain SGD
}

// NewWeightState allocates gradient and Adam-moment tensors for w.
func NewWeightState(reg *tensor.Registry, w *tensor.Meta, adam bool) *WeightState {
	ws := &WeightState{
		Weight: w,
		Grad:   reg.New(w.Name+".grad", tensor.Gradient, w.DType, w.Shape...),
	}
	if adam {
		ws.M = reg.New(w.Name+".adam_m", tensor.OptState, w.DType, w.Shape...)
		ws.V = reg.New(w.Name+".adam_v", tensor.OptState, w.DType, w.Shape...)
	}
	return ws
}

// Bytes returns the persistent state bytes (weight + grad + moments).
func (ws *WeightState) Bytes() int64 {
	b := ws.Weight.Bytes() + ws.Grad.Bytes()
	if ws.M != nil {
		b += ws.M.Bytes() + ws.V.Bytes()
	}
	return b
}

// gradOpName maps a forward operator to its registered backward operator.
var gradOpName = map[string]string{
	"matmul":             "matmul_grad_a",
	"linear":             "matmul_grad_b",
	"attention_scores":   "matmul_grad_a",
	"attention_context":  "matmul_grad_b",
	"conv2d":             "conv2d_grad",
	"conv1d":             "conv2d_grad",
	"depthwise_conv":     "conv2d_grad",
	"conv_transpose":     "conv2d_grad",
	"lstm_cell":          "lstm_cell_grad",
	"gru_cell":           "lstm_cell_grad",
	"tree_compose":       "lstm_cell_grad",
	"layernorm":          "layernorm_grad",
	"batchnorm":          "layernorm_grad",
	"softmax":            "softmax_grad",
	"attention_softmax":  "softmax_grad",
	"embedding":          "embedding_grad",
	"index_select":       "embedding_grad",
	"gather_rows":        "embedding_grad",
	"expert_combine":     "expert_dispatch",
	"triangle_mult":      "matmul_grad_a",
	"outer_product_mean": "matmul_grad_b",
}

func backwardName(fwd string) string {
	if g, ok := gradOpName[fwd]; ok {
		return g
	}
	return "elementwise_grad"
}

// Iteration is one full training iteration over a resolved forward graph:
// forward ops, generated backward ops, and optimizer updates. It also carries
// the tensor bookkeeping the offloading policies need.
type Iteration struct {
	Forward   []*Op
	Backward  []*Op
	Optimizer []*Op
}

// ExpandTraining generates the full training iteration for a resolved forward
// pass (§: tensor kinds matter — DTR may only rematerialize activations; the
// optimizer phase touches weights, gradients, and moments).
//
// Backward generation mirrors the forward sequence in reverse: each forward
// op gets one gradient op consuming the upstream gradient plus the forward
// op's saved inputs, producing gradients for activation inputs (fresh
// tensors) and accumulating into the shared gradient tensors of weight
// inputs. Gradient-op FLOPs are twice the forward FLOPs, the usual 2:1
// backward/forward ratio.
func ExpandTraining(reg *tensor.Registry, r *Resolved, states []*WeightState, adam bool) *Iteration {
	it := &Iteration{Forward: r.Ops}

	byWeight := make(map[int64]*WeightState, len(states))
	for _, ws := range states {
		byWeight[ws.Weight.ID] = ws
	}

	// Upstream gradient tensors for activations, keyed by forward tensor ID.
	actGrad := map[int64]*tensor.Meta{}
	gradOf := func(t *tensor.Meta) *tensor.Meta {
		if g, ok := actGrad[t.ID]; ok {
			return g
		}
		g := reg.New(t.Name+".grad", tensor.Gradient, t.DType, t.Shape...)
		actGrad[t.ID] = g
		return g
	}

	// producedGrads tracks gradient tensors already written by an earlier
	// backward op. With weight-shared Repeat bodies (AlphaFold recycling),
	// an aliased tensor's gradient can otherwise be read before any op
	// produced it; such reads start an accumulation, so the first reader
	// zero-initializes (also produces) the gradient.
	producedGrads := map[int64]bool{}

	for i := len(r.Ops) - 1; i >= 0; i-- {
		fwd := r.Ops[i]
		name := backwardName(fwd.Name)

		inputs := make([]*tensor.Meta, 0, len(fwd.Inputs)+len(fwd.Outputs))
		var initGrads []*tensor.Meta
		for _, out := range fwd.Outputs {
			g := gradOf(out)
			inputs = append(inputs, g)
			if !producedGrads[g.ID] {
				initGrads = append(initGrads, g)
				producedGrads[g.ID] = true
			}
		}
		inputs = append(inputs, fwd.Inputs...)

		outputs := append([]*tensor.Meta{}, initGrads...)
		for _, in := range fwd.Inputs {
			switch in.Kind {
			case tensor.Weight:
				if ws, ok := byWeight[in.ID]; ok {
					outputs = append(outputs, ws.Grad)
					producedGrads[ws.Grad.ID] = true
				}
			case tensor.Activation:
				g := gradOf(in)
				outputs = append(outputs, g)
				producedGrads[g.ID] = true
			}
		}
		if len(outputs) == 0 {
			// Gradients flow nowhere (e.g. op over constants/inputs only);
			// no backward op needed.
			continue
		}
		it.Backward = append(it.Backward, NewOp(name, 2*fwd.FLOPs, inputs, outputs))
	}

	updName := "sgd_update"
	if adam {
		updName = "adam_update"
	}
	for _, ws := range states {
		inputs := []*tensor.Meta{ws.Weight, ws.Grad}
		if adam && ws.M != nil {
			inputs = append(inputs, ws.M, ws.V)
		}
		flops := ws.Weight.Elems() * 4
		it.Optimizer = append(it.Optimizer, NewOp(updName, flops, inputs, []*tensor.Meta{ws.Weight}))
	}
	return it
}
