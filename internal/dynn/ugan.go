package dynn

import (
	"fmt"

	"dynnoffload/internal/graph"
	"dynnoffload/internal/tensor"
)

// UGANConfig sizes UGAN, the CNN-based GAN of Table II: a U-Net generator
// whose encoder/decoder depth adapts to the input (site 0) plus a
// discriminator with input-dependent depth (site 1).
type UGANConfig struct {
	BaseChannels int
	ImgSize      int // must be divisible by 8
	Batch        int
	Seed         uint64
}

// UGAN is the GAN-style CNN DyNN.
type UGAN struct {
	base
	cfg UGANConfig
}

// NewUGAN builds a UGAN instance.
func NewUGAN(cfg UGANConfig) *UGAN {
	b := newBuilder(true)
	c0 := cfg.BaseChannels

	var elems []graph.Elem
	x := b.input("gen.in", cfg.Batch, 3, cfg.ImgSize, cfg.ImgSize)
	stem, e := b.conv("gen.stem", x, c0, 3)
	elems = append(elems, e...)

	// uNet emits an encoder/decoder of the given depth ending in a copy to
	// join. Weights are per-level (shared between the two arms for the
	// levels they have in common).
	uNet := func(depth int, in *tensor.Meta, join *tensor.Meta) []graph.Elem {
		var out []graph.Elem
		cur := in
		var skips []*tensor.Meta
		ch := c0
		for d := 0; d < depth; d++ {
			var e []graph.Elem
			cur, e = b.conv(fmt.Sprintf("gen.down%d", d), cur, ch*2, 3)
			out = append(out, e...)
			skips = append(skips, cur)
			cur, e = b.pool(fmt.Sprintf("gen.pool%d.d%d", d, depth), cur)
			out = append(out, e...)
			ch *= 2
		}
		for d := depth - 1; d >= 0; d-- {
			up := b.act(fmt.Sprintf("gen.up%d.d%d", d, depth), cur.Shape[0], cur.Shape[1], cur.Shape[2]*2, cur.Shape[3]*2)
			out = append(out, op("conv_transpose", 2*up.Elems()*int64(cur.Shape[1]), []*tensor.Meta{cur}, []*tensor.Meta{up}))
			merged := b.act(fmt.Sprintf("gen.cat%d.d%d", d, depth), up.Shape[0], up.Shape[1]+skips[d].Shape[1], up.Shape[2], up.Shape[3])
			out = append(out, op("concat", merged.Elems(), []*tensor.Meta{up, skips[d]}, []*tensor.Meta{merged}))
			var e []graph.Elem
			cur, e = b.conv(fmt.Sprintf("gen.dec%d", d), merged, max(ch/2, c0), 3)
			out = append(out, e...)
			ch /= 2
		}
		out = append(out, op("copy", join.Elems(), []*tensor.Meta{cur}, []*tensor.Meta{join}))
		return out
	}

	genJoin := b.act("gen.join", cfg.Batch, c0, cfg.ImgSize, cfg.ImgSize)
	elems = append(elems, graph.Branch{Site: 0, Arms: [][]graph.Elem{
		append(b.markers(0, 0), uNet(2, stem, genJoin)...),
		append(b.markers(0, 1), uNet(3, stem, genJoin)...),
	}})

	img, e := b.conv("gen.out", genJoin, 3, 3)
	elems = append(elems, e...)

	// Discriminator with adaptive depth.
	disc := func(depth int, in *tensor.Meta, join *tensor.Meta) []graph.Elem {
		var out []graph.Elem
		cur := in
		ch := c0
		for d := 0; d < depth; d++ {
			var e []graph.Elem
			cur, e = b.conv(fmt.Sprintf("disc.conv%d", d), cur, ch, 3)
			out = append(out, e...)
			cur, e = b.pool(fmt.Sprintf("disc.pool%d.d%d", d, depth), cur)
			out = append(out, e...)
			ch *= 2
		}
		score, e := b.linear(fmt.Sprintf("disc.head.d%d", depth), cur, 1)
		out = append(out, e...)
		out = append(out, op("copy", join.Elems(), []*tensor.Meta{score}, []*tensor.Meta{join}))
		return out
	}
	discJoin := b.act("disc.join", cfg.Batch, 1)
	elems = append(elems, graph.Branch{Site: 1, Arms: [][]graph.Elem{
		append(b.markers(1, 0), disc(2, img, discJoin)...),
		append(b.markers(1, 1), disc(3, img, discJoin)...),
	}})

	loss := b.act("loss", 1)
	elems = append(elems, op("mse_loss", discJoin.Elems(), []*tensor.Meta{discJoin}, []*tensor.Meta{loss}))

	m := &UGAN{cfg: cfg}
	m.base = base{
		name:     "UGAN",
		baseType: CNN,
		static:   &graph.Static{ModelName: "UGAN", Elems: elems, NumSites: 2},
		states:   b.states,
		reg:      b.reg,
		decider:  NewDecider(cfg.Seed+0x06a2, 2),
	}
	m.finish()
	return m
}
