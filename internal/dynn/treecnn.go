package dynn

import (
	"fmt"

	"dynnoffload/internal/graph"
	"dynnoffload/internal/tensor"
)

// TreeCNNConfig sizes the Tree-CNN of the paper's Fig 1: a sentence-embedding
// model that builds a parse tree bottom-up. At every merge level, a control
// flow selects which grammar-type node (and therefore which dedicated CNN) is
// activated — each node has four operators (conv, relu, maxpool, score), as
// in the paper's AFM example (Fig 4).
type TreeCNNConfig struct {
	Levels   int // merge levels = control-flow sites
	Types    int // grammar types (dedicated CNNs per type), >= 2
	Channels int
	Width    int // spatial width of node feature maps
	Batch    int
	Seed     uint64
}

func (c *TreeCNNConfig) defaults() {
	if c.Types < 2 {
		c.Types = 2
	}
	if c.Width == 0 {
		c.Width = 16
	}
}

// TreeCNN is the CNN-based DyNN of Fig 1.
type TreeCNN struct {
	base
	cfg TreeCNNConfig
}

// NewTreeCNN builds a Tree-CNN instance.
func NewTreeCNN(cfg TreeCNNConfig) *TreeCNN {
	cfg.defaults()
	b := newBuilder(true)

	var elems []graph.Elem
	// Leaf featurization: token embedding laid out as a feature map.
	x := b.input("leaf.in", cfg.Batch, cfg.Channels, cfg.Width, cfg.Width)
	cur, e := b.conv("leaf.conv", x, cfg.Channels, 3)
	elems = append(elems, e...)

	// nodeOps emits the four operators of one tree node using the dedicated
	// CNN of grammar type t (weights shared across levels for the same type,
	// as each type has one CNN).
	nodeOps := func(level, t int, in *tensor.Meta, join *tensor.Meta) []graph.Elem {
		prefix := fmt.Sprintf("type%d", t)
		var out []graph.Elem
		conv, e := b.conv(prefix+".conv", in, cfg.Channels, 3) // conv2d + relu
		out = append(out, e...)
		pooled, e := b.pool(fmt.Sprintf("%s.pool.l%d", prefix, level), conv)
		out = append(out, e...)
		score, e := b.linear(prefix+".score", pooled, 1)
		out = append(out, e...)
		_ = score
		out = append(out, op("copy", join.Elems(), []*tensor.Meta{pooled}, []*tensor.Meta{join}))
		return out
	}

	for level := 0; level < cfg.Levels; level++ {
		join := b.act(fmt.Sprintf("level%d.join", level), cfg.Batch, cfg.Channels, cfg.Width/2, cfg.Width/2)
		arms := make([][]graph.Elem, cfg.Types)
		for t := 0; t < cfg.Types; t++ {
			arms[t] = append(b.markers(level, t), nodeOps(level, t, cur, join)...)
		}
		elems = append(elems, graph.Branch{Site: level, Arms: arms})
		// Re-expand the pooled map for the next level so shapes stay stable.
		up := b.act(fmt.Sprintf("level%d.up", level), cfg.Batch, cfg.Channels, cfg.Width, cfg.Width)
		elems = append(elems, op("upsample", up.Elems(), []*tensor.Meta{join}, []*tensor.Meta{up}))
		cur = up
	}

	// Sentence representation head.
	rep, e := b.linear("head.rep", cur, 64)
	elems = append(elems, e...)
	loss := b.act("head.loss", 1)
	elems = append(elems, op("mse_loss", rep.Elems(), []*tensor.Meta{rep}, []*tensor.Meta{loss}))

	m := &TreeCNN{cfg: cfg}
	m.base = base{
		name:     "Tree-CNN",
		baseType: CNN,
		static:   &graph.Static{ModelName: "Tree-CNN", Elems: elems, NumSites: cfg.Levels},
		states:   b.states,
		reg:      b.reg,
		decider:  NewDecider(cfg.Seed+0x7cee, cfg.Levels),
	}
	m.finish()
	return m
}
