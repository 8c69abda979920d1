package pilot

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/mathx"
	"dynnoffload/internal/sentinel"
)

// naiveNearest is the reference output→path scan: every candidate's squared
// distance summed left to right in full, first strictly smaller one kept.
func naiveNearest(labels []float64, n int, pred []float64) (int, float64) {
	best, bestDist := -1, 0.0
	if n == 0 {
		return best, bestDist
	}
	w := len(labels) / n
	for i := 0; i < n; i++ {
		var d float64
		for j, v := range labels[i*w : (i+1)*w] {
			diff := pred[j] - v
			d += diff * diff
		}
		if best < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// sameBits reports bit-identical distances. Any two NaNs count as equal:
// x86 keeps the first operand's payload when both addends are NaN, and the
// compiler may order a commutative add either way.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// interleave lays n flat labels, back to back, out in pathLabelsNorm's
// layout: lane-interleaved groups of mathx.Lanes, each padding lane a copy
// of its group's first label.
func interleave(flat []float64, n int) []float64 {
	if n == 0 {
		return nil
	}
	const lanes = mathx.Lanes
	w := len(flat) / n
	groups := (n + lanes - 1) / lanes
	out := make([]float64, groups*lanes*w)
	for i := 0; i < groups*lanes; i++ {
		g, l, src := i/lanes, i%lanes, i
		if src >= n {
			src = g * lanes
		}
		for k, v := range flat[src*w : (src+1)*w] {
			out[(g*w+k)*lanes+l] = v
		}
	}
	return out
}

// checkNearest runs nearestPath over the interleaved labels and requires
// the naive scan's index and distance bits over the flat ones.
func checkNearest(t *testing.T, name string, labels []float64, n int, pred []float64) int {
	t.Helper()
	wantIdx, wantDist := naiveNearest(labels, n, pred)
	gotIdx, gotDist := nearestPath(interleave(labels, n), n, pred)
	if gotIdx != wantIdx || !sameBits(gotDist, wantDist) {
		t.Errorf("%s: nearestPath = (%d, %v), naive scan (%d, %v)", name, gotIdx, gotDist, wantIdx, wantDist)
	}
	return gotIdx
}

// flatLabels lays n labels of width w back to back, each element drawn from
// rng at the given scale.
func flatLabels(rng *mathx.RNG, n, w int, scale float64) []float64 {
	out := make([]float64, n*w)
	rng.NormVec(out, scale)
	return out
}

func TestNearestPathMatchesNaiveScan(t *testing.T) {
	const w = DefaultMaxBlocks * sentinel.DescriptorLen
	rng := mathx.NewRNG(17)

	// Random labels at path counts around a group of 16, including none at
	// all.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 15, 16, 17, 31, 64, 255, 256} {
		labels := flatLabels(rng, n, w, 1)
		pred := flatLabels(rng, 1, w, 1)
		checkNearest(t, "random", labels, n, pred)
	}

	// Duplicate labels: the lowest index must win, inside one group of 16
	// and across groups, up to a partial last group.
	for _, n := range []int{6, 20, 40} {
		labels := flatLabels(rng, n, w, 1)
		copy(labels[1*w:2*w], labels[3*w:4*w])
		copy(labels[(n-1)*w:], labels[3*w:4*w])
		pred := append([]float64(nil), labels[3*w:4*w]...)
		pred[5] += 0.25
		if got := checkNearest(t, "duplicates", labels, n, pred); got != 1 {
			t.Errorf("duplicates n=%d: got path %d, want the lowest duplicate 1", n, got)
		}
	}

	// Early exit: path 0 matches exactly and every later path is far off in
	// its first descriptor row, so each later group is abandoned after one
	// row. One later group mixes far paths with a near one and must not be.
	labels := flatLabels(rng, 45, w, 1)
	pred := append([]float64(nil), labels[:w]...)
	for i := 1; i < 45; i++ {
		labels[i*w] += 100
	}
	checkNearest(t, "early exit", labels, 45, pred)
	pred[0] += 0.5
	copy(labels[37*w:38*w], pred)
	labels[37*w+w-1] += 0.1
	if got := checkNearest(t, "mixed group", labels, 45, pred); got != 37 {
		t.Errorf("mixed group: got path %d, want 37", got)
	}

	// The best path is last, in a full last group and in a partial one.
	for _, n := range []int{32, 33} {
		labels := flatLabels(rng, n, w, 1)
		pred := append([]float64(nil), labels[(n-1)*w:]...)
		if got := checkNearest(t, "best last", labels, n, pred); got != n-1 {
			t.Errorf("best last n=%d: got path %d", n, got)
		}
	}

	// Widths that are not a multiple of a descriptor row, and a prediction
	// longer than the labels (only its prefix is compared).
	for _, width := range []int{0, 1, 7, 23} {
		labels := flatLabels(rng, 10, width, 1)
		pred := flatLabels(rng, 1, width+3, 1)
		checkNearest(t, "odd width", labels, 10, pred)
	}
}

// fuzzValue maps a byte onto a coarse grid of label values, so fuzzed labels
// repeat often (ties) and a few bytes reach the IEEE special values.
func fuzzValue(b byte) float64 {
	switch b {
	case 0x80:
		return math.Inf(1)
	case 0x81:
		return math.Inf(-1)
	case 0x82:
		return math.NaN()
	}
	return float64(int8(b)) / 8
}

func fuzzFill(out []float64, src []byte) {
	for i := range out {
		if len(src) > 0 {
			out[i] = fuzzValue(src[i%len(src)])
		}
	}
}

func FuzzNearestPath(f *testing.F) {
	f.Add(byte(9), byte(100), []byte{1, 2, 3, 4, 5}, []byte{1, 2, 3})
	f.Add(byte(4), byte(10), []byte{0}, []byte{0})
	f.Add(byte(0), byte(3), []byte{}, []byte{7})
	f.Fuzz(func(t *testing.T, n, w byte, labelBytes, predBytes []byte) {
		paths, width := int(n)%70, int(w)%128
		labels := make([]float64, paths*width)
		fuzzFill(labels, labelBytes)
		pred := make([]float64, width+int(n)%3)
		fuzzFill(pred, predBytes)
		checkNearest(t, "fuzz", labels, paths, pred)
	})
}

// flatNorm projects ctx's path labels into p's normalized label space with
// normalize, back to back: the layout naiveNearest scans.
func flatNorm(p *Pilot, ctx *ModelContext) []float64 {
	var out []float64
	for _, info := range ctx.Paths {
		n := len(out)
		out = append(out, make([]float64, len(info.Label))...)
		normalize(info.Label, p.labelMean, p.labelStd, out[n:])
	}
	return out
}

// TestPathLabelsNormLayout checks the cache bit for bit: every path's
// normalized label sits in its lane, and every padding lane of a partial
// last group repeats the group's first path.
func TestPathLabelsNormLayout(t *testing.T) {
	const w, lanes = DefaultMaxBlocks * sentinel.DescriptorLen, mathx.Lanes
	rng := mathx.NewRNG(41)
	for _, n := range []int{1, 15, 16, 17, 64, 256} {
		ctx := &ModelContext{}
		for i := 0; i < n; i++ {
			ctx.Paths = append(ctx.Paths, &PathInfo{Label: flatLabels(rng, 1, w, 1e4)})
		}
		p := &Pilot{
			labelMean:  flatLabels(rng, 1, w, 1e3),
			labelStd:   make([]float64, w),
			normLabels: map[*ModelContext][]float64{},
		}
		for k := range p.labelStd {
			p.labelStd[k] = 1 + rng.Float64()*100
		}
		flat := flatNorm(p, ctx)
		cache := p.pathLabelsNorm(ctx)
		groups := (n + lanes - 1) / lanes
		if len(cache) != groups*lanes*w {
			t.Fatalf("n=%d: cache holds %d elements, want %d", n, len(cache), groups*lanes*w)
		}
		for i := 0; i < groups*lanes; i++ {
			g, l, src := i/lanes, i%lanes, i
			if src >= n {
				src = g * lanes
			}
			for k := 0; k < w; k++ {
				got, want := cache[(g*w+k)*lanes+l], flat[src*w+k]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d: lane %d of group %d, element %d = %v, want path %d's %v", n, l, g, k, got, src, want)
				}
			}
		}
		if again := p.pathLabelsNorm(ctx); &again[0] != &cache[0] {
			t.Errorf("n=%d: second call rebuilt the cache", n)
		}
	}
}

// resolveFixture trains a small pilot on a variable-length LSTM's context
// and returns it with the context and the held-out examples.
func resolveFixture(t *testing.T) (*Pilot, *ModelContext, []*Example) {
	t.Helper()
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 2, Seed: 2})
	ctx, err := NewModelContext(m, gpusim.NewCostModel(gpusim.RTXPlatform()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	exs, err := BuildExamples(ctx, FeatureConfig{}, dynn.GenerateSamples(8, 60, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Neurons: 16, Epochs: 2, Seed: 3})
	p.Train(exs[:50])
	return p, ctx, exs[50:]
}

// TestResolveAllocatesOnlyOutput pins the pooled scratch: a warm Resolve
// allocates nothing but the Output slice it returns, and its path matches
// the naive scan over the same normalized prediction and labels.
func TestResolveAllocatesOnlyOutput(t *testing.T) {
	p, ctx, held := resolveFixture(t)
	for _, e := range held {
		res, err := p.Resolve(e)
		if err != nil {
			t.Fatal(err)
		}
		pred, buf := p.inferNorm(e.Base, e.Features)
		want, _ := naiveNearest(flatNorm(p, ctx), len(ctx.Paths), pred)
		p.scratch.Put(buf)
		if res.Path != ctx.Paths[want] {
			t.Errorf("Resolve mapped to %q, naive scan to %q", res.Path.Key, ctx.Paths[want].Key)
		}
	}

	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	e := held[0]
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Resolve(e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("warm Resolve allocates %v times per call, want at most 1 (its Output)", allocs)
	}
}

// TestCloneKeepsLabelCache checks that a clone starts with its parent's
// normalized-label cache and scratch pool: its first Resolve allocates only
// its Output and resolves as the parent does.
// Train on the clone replaces the clone's map and leaves the parent's
// cache as it was.
func TestCloneKeepsLabelCache(t *testing.T) {
	p, ctx, held := resolveFixture(t)
	e := held[0]
	want, err := p.Resolve(e)
	if err != nil {
		t.Fatal(err)
	}
	cache := p.pathLabelsNorm(ctx)

	c := p.Clone()
	if got := c.normLabels[ctx]; len(got) == 0 || &got[0] != &cache[0] {
		t.Fatal("the clone does not start with the parent's cache entry")
	}
	if got, err := c.Resolve(e); err != nil || got.Path != want.Path {
		t.Fatalf("clone resolves to %v (err %v), parent to %v", got.Path, err, want.Path)
	}

	if !raceEnabled {
		// One fresh clone per run; only the parent's scratch pool is primed,
		// once, outside the count. GOMAXPROCS 1 keeps the Put and the
		// Resolves' Gets on one P.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		_, buf := p.inferNorm(e.Base, e.Features)
		p.scratch.Put(buf)
		const runs = 50
		var mallocs uint64
		for i := 0; i < runs; i++ {
			c := p.Clone()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.Resolve(e); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
		if per := float64(mallocs) / runs; per > 1 {
			t.Errorf("a clone's first Resolve allocates %v times, want at most 1 (its Output)", per)
		}
	}

	parentLen := len(p.normLabels)
	c.Train(held)
	if len(c.normLabels) != 0 {
		t.Errorf("Train left %d entries in the clone's cache", len(c.normLabels))
	}
	if got := p.normLabels[ctx]; len(p.normLabels) != parentLen || len(got) == 0 || &got[0] != &cache[0] {
		t.Error("Train on the clone changed the parent's cache")
	}
	if got, err := p.Resolve(e); err != nil || got.Path != want.Path {
		t.Errorf("after the clone's Train the parent resolves to %v (err %v), before to %v", got.Path, err, want.Path)
	}
}

// nearestSink keeps BenchmarkNearestPath's result live.
var nearestSink int

// BenchmarkNearestPath scans a 64-path (Tree-LSTM) and a 256-path (MoE)
// context of 100-element labels. Each prediction is one label plus small
// noise, as a trained pilot's output is, so the early exit prunes as it
// does in real runs; the near label moves from prediction to prediction.
func BenchmarkNearestPath(b *testing.B) {
	const w = DefaultMaxBlocks * sentinel.DescriptorLen
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("%dx%d", n, w), func(b *testing.B) {
			rng := mathx.NewRNG(uint64(n))
			flat := flatLabels(rng, n, w, 1)
			labels := interleave(flat, n)
			preds := make([][]float64, 32)
			for i := range preds {
				near := rng.Intn(n)
				preds[i] = flatLabels(rng, 1, w, 0.05)
				for k, v := range flat[near*w : (near+1)*w] {
					preds[i][k] += v
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nearestSink, _ = nearestPath(labels, n, preds[i%len(preds)])
			}
		})
	}
}
