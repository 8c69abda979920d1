package dynn

import (
	"fmt"

	"dynnoffload/internal/graph"
	"dynnoffload/internal/tensor"
)

// VarBERTConfig sizes a var-BERT (dynamic-depth BERT, Table II) instance.
// Layers are split into Groups; each group is guarded by one control-flow
// site whose decision selects full depth or an early-exit half of the group —
// layer-wise adaptive depth, the dynamism style of [19], [60] cited in the
// paper. Weights are distinct per layer; early-exit arms reuse the prefix
// layers' weights.
type VarBERTConfig struct {
	Layers int
	Hidden int
	Heads  int
	Inner  int // FFN inner width; defaults to 4*Hidden
	SeqLen int
	Batch  int
	Vocab  int
	Groups int // control-flow sites; defaults to min(6, Layers)
	Seed   uint64
	Static bool // build fixed-BERT: no control flow
}

func (c *VarBERTConfig) defaults() {
	if c.Inner == 0 {
		c.Inner = 4 * c.Hidden
	}
	if c.Vocab == 0 {
		c.Vocab = 8192
	}
	if c.Groups == 0 {
		c.Groups = 6
	}
	if c.Groups > c.Layers {
		c.Groups = c.Layers
	}
	if c.Heads == 0 {
		c.Heads = 8
	}
}

// VarBERT is the transformer-based DyNN used for the paper's headline
// capacity results (§VI-B).
type VarBERT struct {
	base
	cfg VarBERTConfig
}

// NewVarBERT builds a var-BERT (or fixed-BERT when cfg.Static).
func NewVarBERT(cfg VarBERTConfig) *VarBERT {
	cfg.defaults()
	b := newBuilder(true)
	name := "var-BERT"
	if cfg.Static {
		name = "fixed-BERT"
	}

	var elems []graph.Elem
	x, e := b.embedding("emb", cfg.Vocab, cfg.Batch, cfg.SeqLen, cfg.Hidden)
	elems = append(elems, e...)

	// Assign layers to groups as evenly as possible.
	perGroup := cfg.Layers / cfg.Groups
	extra := cfg.Layers % cfg.Groups
	layerIdx := 0
	site := 0

	buildLayers := func(x *tensor.Meta, first, count int) (*tensor.Meta, []graph.Elem) {
		var out []graph.Elem
		cur := x
		for l := first; l < first+count; l++ {
			var e []graph.Elem
			cur, e = b.transformerLayer(fmt.Sprintf("layer%d", l), cur, cfg.Heads, cfg.Inner)
			out = append(out, e...)
		}
		return cur, out
	}
	joinInto := func(prefix string, from *tensor.Meta, to *tensor.Meta) graph.Elem {
		return op("copy", to.Elems(), []*tensor.Meta{from}, []*tensor.Meta{to})
	}

	for g := 0; g < cfg.Groups; g++ {
		count := perGroup
		if g < extra {
			count++
		}
		if count == 0 {
			continue
		}
		if cfg.Static || count < 2 {
			var e []graph.Elem
			x, e = buildLayers(x, layerIdx, count)
			elems = append(elems, e...)
		} else {
			join := b.act(fmt.Sprintf("group%d.join", g), cfg.Batch, cfg.SeqLen, cfg.Hidden)
			full, fullE := buildLayers(x, layerIdx, count)
			fullE = append(b.markers(site, 0), fullE...)
			fullE = append(fullE, joinInto("join", full, join))
			halfOut, halfE := buildLayers(x, layerIdx, (count+1)/2)
			halfE = append(b.markers(site, 1), halfE...)
			halfE = append(halfE, joinInto("join", halfOut, join))
			elems = append(elems, graph.Branch{Site: site, Arms: [][]graph.Elem{fullE, halfE}})
			site++
			x = join
		}
		layerIdx += count
	}

	// LM head with tied embedding weights + loss.
	nf, e := b.norm("head.ln", x)
	elems = append(elems, e...)
	logits := b.act("head.logits", cfg.Batch, cfg.SeqLen, cfg.Vocab)
	flops := 2 * int64(cfg.Batch) * int64(cfg.SeqLen) * int64(cfg.Hidden) * int64(cfg.Vocab)
	elems = append(elems, op("matmul", flops, []*tensor.Meta{nf, b.weight("emb.table", cfg.Vocab, cfg.Hidden)}, []*tensor.Meta{logits}))
	loss := b.act("head.loss", 1)
	elems = append(elems, op("cross_entropy", 3*logits.Elems(), []*tensor.Meta{logits}, []*tensor.Meta{loss}))

	m := &VarBERT{cfg: cfg}
	m.base = base{
		name:     name,
		baseType: Transformer,
		static:   &graph.Static{ModelName: name, Elems: elems, NumSites: site},
		states:   b.states,
		reg:      b.reg,
		decider:  NewDecider(cfg.Seed+0xbe27, site),
	}
	m.finish()
	return m
}

// NewFixedBERT builds the static-BERT baseline from the same config.
func NewFixedBERT(cfg VarBERTConfig) *VarBERT {
	cfg.Static = true
	return NewVarBERT(cfg)
}
