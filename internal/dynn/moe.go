package dynn

import (
	"fmt"

	"dynnoffload/internal/graph"
	"dynnoffload/internal/tensor"
)

// MoEConfig sizes a switch-style mixture-of-experts transformer (the paper's
// §I cites switch-MoE as a memory-hungry DyNN class, and GLaM as the
// large-model motivation). Every MoE layer routes each batch through exactly
// one of Experts expert FFNs; the router's choice is the control flow.
type MoEConfig struct {
	Layers  int // MoE layers = control-flow sites
	Hidden  int
	Heads   int
	Experts int
	SeqLen  int
	Batch   int
	Seed    uint64
}

func (c *MoEConfig) defaults() {
	if c.Experts < 2 {
		c.Experts = 4
	}
	if c.Heads == 0 {
		c.Heads = 8
	}
}

// MoE is the mixture-of-experts DyNN.
type MoE struct {
	base
	cfg MoEConfig
}

// NewMoE builds an MoE instance.
func NewMoE(cfg MoEConfig) *MoE {
	cfg.defaults()
	b := newBuilder(true)

	var elems []graph.Elem
	x, e := b.embedding("emb", 8192, cfg.Batch, cfg.SeqLen, cfg.Hidden)
	elems = append(elems, e...)

	for l := 0; l < cfg.Layers; l++ {
		prefix := fmt.Sprintf("layer%d", l)
		var e []graph.Elem
		n1, e := b.norm(prefix+".ln1", x)
		elems = append(elems, e...)
		a, e := b.attention(prefix+".attn", n1, cfg.Heads)
		elems = append(elems, e...)

		// Router: score the experts, gate top-1 (the control flow).
		scores, e := b.linear(prefix+".router", a, cfg.Experts)
		elems = append(elems, e...)
		gate := b.act(prefix+".gate", cfg.Batch, cfg.SeqLen, 1)
		elems = append(elems, op("topk_gate", scores.Elems(), []*tensor.Meta{scores}, []*tensor.Meta{gate}))

		// Expert dispatch: one arm per expert, each with dedicated weights.
		join := b.act(prefix+".join", cfg.Batch, cfg.SeqLen, cfg.Hidden)
		arms := make([][]graph.Elem, cfg.Experts)
		for ex := 0; ex < cfg.Experts; ex++ {
			eprefix := fmt.Sprintf("%s.expert%d", prefix, ex)
			out, armE := b.ffn(eprefix, a, 4*cfg.Hidden)
			armE = append(armE, op("copy", join.Elems(), []*tensor.Meta{out}, []*tensor.Meta{join}))
			arms[ex] = append(b.markers(l, ex), armE...)
		}
		elems = append(elems, graph.Branch{Site: l, Arms: arms})
		x = join
	}

	logits, e := b.linear("head", x, 8192)
	elems = append(elems, e...)
	loss := b.act("head.loss", 1)
	elems = append(elems, op("cross_entropy", 3*logits.Elems(), []*tensor.Meta{logits}, []*tensor.Meta{loss}))

	m := &MoE{cfg: cfg}
	m.base = base{
		name:     "MoE",
		baseType: Transformer,
		static:   &graph.Static{ModelName: "MoE", Elems: elems, NumSites: cfg.Layers},
		states:   b.states,
		reg:      b.reg,
		decider:  NewDecider(cfg.Seed+0x40e, cfg.Layers),
	}
	m.finish()
	return m
}
