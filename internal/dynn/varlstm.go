package dynn

import (
	"fmt"

	"dynnoffload/internal/graph"
	"dynnoffload/internal/tensor"
)

// VarLSTMConfig sizes var-LSTM: an LSTM over variable-length sequences
// (Table II). Site 0 selects the unroll-length bucket (weights shared across
// buckets and timesteps, as in a real RNN); site 1 toggles a bidirectional
// backward pass.
type VarLSTMConfig struct {
	Hidden  int
	Buckets []int // unroll lengths; defaults to {8, 16, 24, 32}
	Batch   int
	Seed    uint64
	Static  bool // build fixed-LSTM: fixed length, no control flow
	FixedT  int  // unroll length for fixed-LSTM; defaults to 16
}

func (c *VarLSTMConfig) defaults() {
	if len(c.Buckets) == 0 {
		c.Buckets = []int{8, 16, 24, 32}
	}
	if c.FixedT == 0 {
		c.FixedT = 16
	}
}

// VarLSTM is the sequence-length-adaptive LSTM DyNN (or fixed-LSTM).
type VarLSTM struct {
	base
	cfg VarLSTMConfig
}

// NewVarLSTM builds a var-LSTM (or fixed-LSTM when cfg.Static).
func NewVarLSTM(cfg VarLSTMConfig) *VarLSTM {
	cfg.defaults()
	b := newBuilder(true)
	name := "var-LSTM"
	if cfg.Static {
		name = "fixed-LSTM"
	}

	var elems []graph.Elem
	maxT := cfg.FixedT
	for _, t := range cfg.Buckets {
		if t > maxT {
			maxT = t
		}
	}
	x, e := b.embedding("emb", Vocab(), cfg.Batch, maxT, cfg.Hidden)
	elems = append(elems, e...)

	h0 := b.act("h0", cfg.Batch, cfg.Hidden)
	elems = append(elems, op("copy", h0.Elems(), []*tensor.Meta{x}, []*tensor.Meta{h0}))

	// unroll emits T shared-weight timesteps ending in a copy to join.
	unroll := func(tag string, T int, h *tensor.Meta, join *tensor.Meta) []graph.Elem {
		var out []graph.Elem
		cur := h
		for t := 0; t < T; t++ {
			xt := b.act(fmt.Sprintf("%s.x%d", tag, t), cfg.Batch, cfg.Hidden)
			out = append(out, op("slice", xt.Elems(), []*tensor.Meta{x}, []*tensor.Meta{xt}))
			var e []graph.Elem
			cur, e = b.lstmStep("cell", xt, cur, cfg.Hidden) // "cell" prefix => shared weights
			out = append(out, e...)
		}
		out = append(out, op("copy", join.Elems(), []*tensor.Meta{cur}, []*tensor.Meta{join}))
		return out
	}

	var cur *tensor.Meta
	numSites := 0
	if cfg.Static {
		join := b.act("fwd.join", cfg.Batch, cfg.Hidden)
		elems = append(elems, unroll("fwd", cfg.FixedT, h0, join)...)
		cur = join
	} else {
		join := b.act("fwd.join", cfg.Batch, cfg.Hidden)
		arms := make([][]graph.Elem, len(cfg.Buckets))
		for i, T := range cfg.Buckets {
			arms[i] = append(b.markers(0, i), unroll(fmt.Sprintf("fwd.b%d", i), T, h0, join)...)
		}
		elems = append(elems, graph.Branch{Site: 0, Arms: arms})
		cur = join

		// Site 1: optional backward (bidirectional) pass of the shortest bucket.
		bjoin := b.act("bwd.join", cfg.Batch, cfg.Hidden)
		skip := append(b.markers(1, 0), op("copy", bjoin.Elems(), []*tensor.Meta{cur}, []*tensor.Meta{bjoin}))
		bidi := append(b.markers(1, 1), unroll("bwd", cfg.Buckets[0], cur, bjoin)...)
		elems = append(elems, graph.Branch{Site: 1, Arms: [][]graph.Elem{skip, bidi}})
		cur = bjoin
		numSites = 2
	}

	logits, e := b.linear("head", cur, 64)
	elems = append(elems, e...)
	loss := b.act("head.loss", 1)
	elems = append(elems, op("cross_entropy", logits.Elems(), []*tensor.Meta{logits}, []*tensor.Meta{loss}))

	m := &VarLSTM{cfg: cfg}
	m.base = base{
		name:     name,
		baseType: LSTM,
		static:   &graph.Static{ModelName: name, Elems: elems, NumSites: numSites},
		states:   b.states,
		reg:      b.reg,
		decider:  NewDecider(cfg.Seed+0x1257, numSites),
	}
	m.finish()
	return m
}

// NewFixedLSTM builds the static-LSTM baseline.
func NewFixedLSTM(cfg VarLSTMConfig) *VarLSTM {
	cfg.Static = true
	return NewVarLSTM(cfg)
}
