package pilot

import (
	"math"
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

func checkNearest(t *testing.T, name string, labels []float64, n int, pred []float64) {
	t.Helper()
	wantIdx, wantDist := naiveNearest(labels, n, pred)
	gotIdx, gotDist := nearestPath(labels, n, pred)
	if gotIdx != wantIdx || !sameBits(gotDist, wantDist) {
		t.Errorf("%s: nearestPath = (%d, %v), naive scan (%d, %v)", name, gotIdx, gotDist, wantIdx, wantDist)
	}
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

	// Random labels at every path count mod 4, including none at all.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 64, 255, 256} {
		labels := flatLabels(rng, n, w, 1)
		pred := flatLabels(rng, 1, w, 1)
		checkNearest(t, "random", labels, n, pred)
	}

	// Duplicate labels: the lowest index must win, inside one group of four
	// and across groups, up to a partial last group.
	for _, n := range []int{6, 11} {
		labels := flatLabels(rng, n, w, 1)
		copy(labels[1*w:2*w], labels[3*w:4*w])
		copy(labels[(n-1)*w:], labels[3*w:4*w])
		pred := append([]float64(nil), labels[3*w:4*w]...)
		pred[5] += 0.25
		checkNearest(t, "duplicates", labels, n, pred)
		if got, _ := nearestPath(labels, n, pred); got != 1 {
			t.Errorf("duplicates n=%d: got path %d, want the lowest duplicate 1", n, got)
		}
	}

	// Early exit: path 0 matches exactly and every later path is far off in
	// its first descriptor row, so each later group is abandoned after one
	// row. One later group mixes a far path with a near one and must not be.
	labels := flatLabels(rng, 13, w, 1)
	pred := append([]float64(nil), labels[:w]...)
	for i := 1; i < 13; i++ {
		labels[i*w] += 100
	}
	checkNearest(t, "early exit", labels, 13, pred)
	pred[0] += 0.5
	copy(labels[6*w:7*w], pred)
	labels[6*w+w-1] += 0.1
	checkNearest(t, "mixed group", labels, 13, pred)
	if got, _ := nearestPath(labels, 13, pred); got != 6 {
		t.Errorf("mixed group: got path %d, want 6", got)
	}

	// The best path is last, in a full last group and in a partial one.
	for _, n := range []int{8, 9} {
		labels := flatLabels(rng, n, w, 1)
		pred := append([]float64(nil), labels[(n-1)*w:]...)
		checkNearest(t, "best last", labels, n, pred)
		if got, _ := nearestPath(labels, n, pred); got != n-1 {
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

// TestResolveAllocatesOnlyOutput pins the pooled scratch: a warm Resolve
// allocates nothing but the Output slice it returns, and its path matches
// the naive scan over the same normalized prediction.
func TestResolveAllocatesOnlyOutput(t *testing.T) {
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

	for _, e := range exs[50:] {
		res, err := p.Resolve(e)
		if err != nil {
			t.Fatal(err)
		}
		pred, buf := p.inferNorm(e.Base, e.Features)
		want, _ := naiveNearest(p.pathLabelsNorm(ctx), len(ctx.Paths), pred)
		p.scratch.Put(buf)
		if res.Path != ctx.Paths[want] {
			t.Errorf("Resolve mapped to %q, naive scan to %q", res.Path.Key, ctx.Paths[want].Key)
		}
	}

	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	e := exs[50]
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Resolve(e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("warm Resolve allocates %v times per call, want at most 1 (its Output)", allocs)
	}
}
