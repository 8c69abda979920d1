package dynn

import (
	"fmt"

	"dynnoffload/internal/graph"
	"dynnoffload/internal/tensor"
)

// TreeLSTMConfig sizes the Tree-LSTM [72] used for the paper's Table I
// unpredictability study. Every composition level carries a control-flow
// site choosing the composition order (which children merge), each with its
// own gating weights — the "rich control flows" the paper highlights.
type TreeLSTMConfig struct {
	Levels int // composition levels = control-flow sites
	Hidden int
	SeqLen int
	Batch  int
	Seed   uint64
}

// TreeLSTM is the LSTM-based tree-structured DyNN.
type TreeLSTM struct {
	base
	cfg TreeLSTMConfig
}

// NewTreeLSTM builds a Tree-LSTM instance.
func NewTreeLSTM(cfg TreeLSTMConfig) *TreeLSTM {
	b := newBuilder(true)

	var elems []graph.Elem
	x, e := b.embedding("emb", Vocab(), cfg.Batch, cfg.SeqLen, cfg.Hidden)
	elems = append(elems, e...)

	// Initial leaf state: project embeddings to the hidden state.
	leaf := b.act("leaf.h", cfg.Batch, cfg.Hidden)
	elems = append(elems, op("sum", x.Elems(), []*tensor.Meta{x}, []*tensor.Meta{leaf}))

	cur := leaf
	// composeOps emits one tree composition: tree_compose (LSTM-style
	// gating), sigmoid gate, gated merge.
	composeOps := func(level, order int, in *tensor.Meta, join *tensor.Meta) []graph.Elem {
		prefix := fmt.Sprintf("compose.o%d", order) // weights shared per order across levels
		w := b.weight(prefix+".w", 2*cfg.Hidden, 4*cfg.Hidden)
		g := b.act(fmt.Sprintf("%s.l%d.g", prefix, level), cfg.Batch, 4*cfg.Hidden)
		flops := 2 * int64(cfg.Batch) * int64(2*cfg.Hidden) * int64(4*cfg.Hidden)
		out := seq(
			op("tree_compose", flops, []*tensor.Meta{in, w}, []*tensor.Meta{g}),
		)
		out = append(out, b.activationOp("sigmoid", g)...)
		merged := b.act(fmt.Sprintf("%s.l%d.h", prefix, level), cfg.Batch, cfg.Hidden)
		out = append(out, op("gate_mul", g.Elems(), []*tensor.Meta{g, in}, []*tensor.Meta{merged}))
		out = append(out, op("copy", join.Elems(), []*tensor.Meta{merged}, []*tensor.Meta{join}))
		return out
	}

	for level := 0; level < cfg.Levels; level++ {
		join := b.act(fmt.Sprintf("level%d.join", level), cfg.Batch, cfg.Hidden)
		arms := [][]graph.Elem{
			append(b.markers(level, 0), composeOps(level, 0, cur, join)...),
			append(b.markers(level, 1), composeOps(level, 1, cur, join)...),
		}
		elems = append(elems, graph.Branch{Site: level, Arms: arms})
		cur = join
	}

	rep, e := b.linear("head.rep", cur, cfg.Hidden)
	elems = append(elems, e...)
	loss := b.act("head.loss", 1)
	elems = append(elems, op("cross_entropy", rep.Elems(), []*tensor.Meta{rep}, []*tensor.Meta{loss}))

	m := &TreeLSTM{cfg: cfg}
	m.base = base{
		name:     "Tree-LSTM",
		baseType: LSTM,
		static:   &graph.Static{ModelName: "Tree-LSTM", Elems: elems, NumSites: cfg.Levels},
		states:   b.states,
		reg:      b.reg,
		decider:  NewDecider(cfg.Seed+0x7215, cfg.Levels),
	}
	m.finish()
	return m
}
