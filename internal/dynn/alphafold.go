package dynn

import (
	"fmt"

	"dynnoffload/internal/graph"
	"dynnoffload/internal/tensor"
)

// AlphaFoldConfig sizes the AlphaFold-style evoformer (the paper's
// production-scale DyNN, §I: ~1 TB footprint at 128×256 inputs). Dynamism:
//
//   - site 0 selects the MSA-cluster bucket (how many MSA rows the input
//     alignment yields) — input-dependent width;
//   - site 1 toggles template-stack usage;
//   - site 2 is a Repeat: the recycling count (1..MaxRecycles). Recycling
//     reuses evoformer weights and, as in AlphaFold, earlier recycles are
//     stop-gradient (activations of repeated iterations alias — see
//     DESIGN.md).
type AlphaFoldConfig struct {
	Blocks      int   // evoformer blocks per recycle
	SeqLen      int   // residues
	MSADepths   []int // cluster buckets; defaults to {32, 64}
	MSADim      int
	PairDim     int
	MaxRecycles int // >= 1
	Batch       int
	Seed        uint64
}

func (c *AlphaFoldConfig) defaults() {
	if len(c.MSADepths) == 0 {
		c.MSADepths = []int{32, 64}
	}
	if c.MaxRecycles < 1 {
		c.MaxRecycles = 4
	}
}

// AlphaFold is the evoformer-based DyNN.
type AlphaFold struct {
	base
	cfg AlphaFoldConfig
}

// NewAlphaFold builds an AlphaFold-style instance.
func NewAlphaFold(cfg AlphaFoldConfig) *AlphaFold {
	cfg.defaults()
	b := newBuilder(true)
	B, S := cfg.Batch, cfg.SeqLen

	var elems []graph.Elem

	// Input featurization: MSA bucket selects how many alignment rows feed
	// the MSA representation.
	msa := b.act("msa.join", B, cfg.MSADepths[len(cfg.MSADepths)-1], S, cfg.MSADim)
	arms := make([][]graph.Elem, len(cfg.MSADepths))
	for i, depth := range cfg.MSADepths {
		raw := b.input(fmt.Sprintf("msa.in.b%d", i), B, depth, S, 23)
		proj, e := b.linear("msa.proj", raw, cfg.MSADim)
		arm := append(b.markers(0, i), e...)
		arm = append(arm, op("copy", msa.Elems(), []*tensor.Meta{proj}, []*tensor.Meta{msa}))
		arms[i] = arm
	}
	elems = append(elems, graph.Branch{Site: 0, Arms: arms})

	// Pair representation, optionally enriched by the template stack.
	pair := b.act("pair.join", B, S, S, cfg.PairDim)
	pairInit := b.act("pair.init", B, S, S, cfg.PairDim)
	initOps := seq(
		op("outer_product_mean", 2*int64(B)*int64(S)*int64(S)*int64(cfg.MSADim), []*tensor.Meta{msa}, []*tensor.Meta{pairInit}),
		op("copy", pair.Elems(), []*tensor.Meta{pairInit}, []*tensor.Meta{pair}),
	)
	tmplRaw := b.input("tmpl.in", B, S, S, 8)
	tmplProj, tmplE := b.linear("tmpl.proj", tmplRaw, cfg.PairDim)
	withTmpl := append(append(b.markers(1, 1), initOps...), tmplE...)
	withTmpl = append(withTmpl, op("residual_add", pair.Elems(), []*tensor.Meta{pair, tmplProj}, []*tensor.Meta{pair}))
	noTmpl := append(b.markers(1, 0), initOps...)
	elems = append(elems, graph.Branch{Site: 1, Arms: [][]graph.Elem{noTmpl, withTmpl}})

	// Evoformer stack, wrapped in the recycling Repeat. The marker repeats
	// with the body, so the recycling count is observable in the record.
	stack := b.markers(2, 0)
	curMSA, curPair := msa, pair
	for blk := 0; blk < cfg.Blocks; blk++ {
		prefix := fmt.Sprintf("evo%d", blk)

		// MSA row attention (per row over residues).
		msaAttnIn := b.act(prefix+".msa.flat", B*cfg.MSADepths[len(cfg.MSADepths)-1], S, cfg.MSADim)
		stack = append(stack, op("reshape", msaAttnIn.Elems(), []*tensor.Meta{curMSA}, []*tensor.Meta{msaAttnIn}))
		msaOut, e := b.attention(prefix+".msa.attn", msaAttnIn, 4)
		stack = append(stack, e...)

		// Outer product mean: MSA -> pair update.
		opm := b.act(prefix+".opm", B, S, S, cfg.PairDim)
		stack = append(stack, op("outer_product_mean",
			2*int64(B)*int64(S)*int64(S)*int64(cfg.MSADim),
			[]*tensor.Meta{msaOut}, []*tensor.Meta{opm}))
		pairUpd := b.act(prefix+".pair.u1", B, S, S, cfg.PairDim)
		stack = append(stack, op("residual_add", pairUpd.Elems(), []*tensor.Meta{curPair, opm}, []*tensor.Meta{pairUpd}))

		// Triangle multiplicative updates (outgoing + incoming).
		for _, dir := range []string{"out", "in"} {
			tri := b.act(fmt.Sprintf("%s.tri.%s", prefix, dir), B, S, S, cfg.PairDim)
			stack = append(stack, op("triangle_mult",
				2*int64(B)*int64(S)*int64(S)*int64(S)*int64(cfg.PairDim),
				[]*tensor.Meta{pairUpd, b.weight(fmt.Sprintf("%s.tri.%s.w", prefix, dir), cfg.PairDim, cfg.PairDim)},
				[]*tensor.Meta{tri}))
			stack = append(stack, op("residual_add", pairUpd.Elems(), []*tensor.Meta{pairUpd, tri}, []*tensor.Meta{pairUpd}))
		}

		// Pair transition (FFN) and write back.
		pairOut, e := b.ffn(prefix+".pair.ffn", pairUpd, 2*cfg.PairDim)
		stack = append(stack, e...)
		stack = append(stack, op("copy", curPair.Elems(), []*tensor.Meta{pairOut}, []*tensor.Meta{curPair}))

		// MSA transition and write back.
		msaFFN, e := b.ffn(prefix+".msa.ffn", msaOut, 2*cfg.MSADim)
		stack = append(stack, e...)
		stack = append(stack, op("copy", curMSA.Elems(), []*tensor.Meta{msaFFN}, []*tensor.Meta{curMSA}))
	}
	elems = append(elems, graph.Repeat{Site: 2, Body: stack, Min: 1, Max: cfg.MaxRecycles})

	// Structure head: per-residue frames from the pair representation.
	frames, e := b.linear("head.frames", curPair, 12)
	elems = append(elems, e...)
	loss := b.act("head.loss", 1)
	elems = append(elems, op("mse_loss", frames.Elems(), []*tensor.Meta{frames}, []*tensor.Meta{loss}))

	m := &AlphaFold{cfg: cfg}
	m.base = base{
		name:     "AlphaFold",
		baseType: Transformer,
		static:   &graph.Static{ModelName: "AlphaFold", Elems: elems, NumSites: 3},
		states:   b.states,
		reg:      b.reg,
		decider:  NewDecider(cfg.Seed+0xaf01d, 3),
	}
	m.finish()
	return m
}
