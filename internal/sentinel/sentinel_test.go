package sentinel

import (
	"testing"
	"testing/quick"

	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/mathx"
	"dynnoffload/internal/tensor"
	"dynnoffload/internal/trace"
)

// chainTrace builds a linear chain of n ops, each consuming the previous
// activation (actBytes each) plus a per-op weight (wBytes each).
func chainTrace(t *testing.T, n int, actElems, wElems int) (*trace.Trace, gpusim.CostModel) {
	t.Helper()
	var reg tensor.Registry
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	var states []*graph.WeightState
	prev := reg.New("in", tensor.Input, tensor.F32, actElems)
	var ops []*graph.Op
	for i := 0; i < n; i++ {
		w := reg.New("w", tensor.Weight, tensor.F32, wElems)
		states = append(states, graph.NewWeightState(&reg, w, true))
		out := reg.New("a", tensor.Activation, tensor.F32, actElems)
		ops = append(ops, graph.NewOp("matmul", int64(2*actElems*wElems), []*tensor.Meta{prev, w}, []*tensor.Meta{out}))
		prev = out
	}
	r := &graph.Resolved{ModelName: "chain", Ops: ops}
	it := graph.ExpandTraining(&reg, r, states, true)
	return trace.FromIteration("chain", it, cm), cm
}

func TestAnalysisLiveness(t *testing.T) {
	tr, cm := chainTrace(t, 4, 1024, 1024)
	an := NewAnalysis(tr, cm)
	if an.NumOps() != len(tr.Records) {
		t.Fatal("op count mismatch")
	}
	if an.TotalComputeNS() != tr.TotalTimeNS() {
		t.Error("compute total mismatch")
	}
	full := Block{0, an.NumOps()}
	if an.WorkingBytes(full) != tr.TotalBytes() {
		t.Error("full-block working set must equal total bytes")
	}
	// ComputeNS is additive over a split.
	mid := an.NumOps() / 2
	if an.ComputeNS(Block{0, mid})+an.ComputeNS(Block{mid, an.NumOps()}) != an.ComputeNS(full) {
		t.Error("ComputeNS not additive")
	}
}

func TestFetchExcludesLocalProduction(t *testing.T) {
	tr, cm := chainTrace(t, 4, 1024, 1024)
	an := NewAnalysis(tr, cm)
	full := Block{0, an.NumOps()}
	fetch := an.FetchBytes(full, Block{})
	// Everything produced inside the single block stays; only weights,
	// moments, inputs stream in. So fetch < working set.
	if fetch >= an.WorkingBytes(full) {
		t.Errorf("fetch %d must be < working %d", fetch, an.WorkingBytes(full))
	}
	if fetch <= 0 {
		t.Error("weights must still be fetched")
	}
}

func TestEvictCountsLiveOutputs(t *testing.T) {
	tr, cm := chainTrace(t, 4, 1024, 1024)
	an := NewAnalysis(tr, cm)
	n := an.NumOps()
	first := Block{0, 2}
	// Outputs of the first two ops are needed later (backward).
	if an.EvictBytes(first, 2) <= 0 {
		t.Error("live outputs must be written back")
	}
	// Nothing is needed at/after the end.
	if an.EvictBytes(Block{n - 1, n}, n) != 0 {
		t.Error("nothing is live after the final op")
	}
}

func TestPeakAndPersistent(t *testing.T) {
	tr, cm := chainTrace(t, 4, 1024, 4096)
	an := NewAnalysis(tr, cm)
	peak := an.PeakResidentBytes()
	persistent := an.PersistentBytes()
	if peak < persistent {
		t.Errorf("peak %d < persistent %d", peak, persistent)
	}
	if peak > tr.TotalBytes() {
		t.Errorf("peak %d > total %d", peak, tr.TotalBytes())
	}
	// Persistent = weights(4) + grads(4) + moments(8) of 4096 elems each.
	want := int64(16 * 4096 * 4)
	if persistent != want {
		t.Errorf("persistent = %d, want %d", persistent, want)
	}
}

func TestPartitionRespectsBudget(t *testing.T) {
	tr, cm := chainTrace(t, 16, 4096, 4096)
	an := NewAnalysis(tr, cm)
	budget := tr.TotalBytes() / 4
	if budget < an.MaxSingleOpBytes() {
		budget = an.MaxSingleOpBytes()
	}
	blocks := an.Partition(budget)
	if blocks == nil {
		t.Fatal("partition infeasible")
	}
	if err := Validate(blocks, an.NumOps()); err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if an.WorkingBytes(b) > budget {
			t.Errorf("block %d working set %d > budget %d", i, an.WorkingBytes(b), budget)
		}
	}
	if len(blocks) < 2 {
		t.Error("pressured partition must have multiple blocks")
	}
}

func TestPartitionInfeasible(t *testing.T) {
	tr, cm := chainTrace(t, 2, 1<<16, 1<<16)
	an := NewAnalysis(tr, cm)
	if blocks := an.Partition(16); blocks != nil {
		t.Error("tiny budget must be infeasible")
	}
}

func TestPartitionSingleBlockWhenRoomy(t *testing.T) {
	tr, cm := chainTrace(t, 4, 256, 256)
	an := NewAnalysis(tr, cm)
	blocks := an.Partition(tr.TotalBytes() * 2)
	if len(blocks) != 1 {
		t.Errorf("roomy budget gave %d blocks", len(blocks))
	}
}

func TestPartitionBeatsOrMatchesHeuristics(t *testing.T) {
	tr, cm := chainTrace(t, 24, 8192, 8192)
	an := NewAnalysis(tr, cm)
	budget := max64(tr.TotalBytes()/5, an.MaxSingleOpBytes())
	blocks := an.Partition(budget)
	if blocks == nil {
		t.Fatal("infeasible")
	}
	sentinelNS, _ := a2total(an, blocks)
	for _, h := range [][]Block{an.EvenOps(len(blocks)), an.EvenTime(len(blocks)), an.EvenBytes(len(blocks))} {
		if Validate(h, an.NumOps()) != nil {
			continue
		}
		feasible := true
		for _, b := range h {
			if an.WorkingBytes(b) > budget {
				feasible = false
			}
		}
		if !feasible {
			continue
		}
		if hNS, _ := a2total(an, h); hNS < sentinelNS {
			t.Errorf("heuristic beat sentinel: %d < %d", hNS, sentinelNS)
		}
	}
}

func a2total(an *Analysis, blocks []Block) (int64, int64) {
	return an.PipelineEstimate(blocks)
}

func TestEvenSplitProperties(t *testing.T) {
	tr, cm := chainTrace(t, 12, 512, 512)
	an := NewAnalysis(tr, cm)
	f := func(nRaw uint8) bool {
		n := int(nRaw%10) + 1
		for _, blocks := range [][]Block{an.EvenOps(n), an.EvenTime(n), an.EvenBytes(n)} {
			if err := Validate(blocks, an.NumOps()); err != nil {
				return false
			}
			if len(blocks) > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDescriptor(t *testing.T) {
	tr, cm := chainTrace(t, 4, 1024, 1024)
	an := NewAnalysis(tr, cm)
	full := Block{0, an.NumOps()}
	d := an.Descriptor(full)
	if int(d[0]) != an.NumOps() {
		t.Errorf("descriptor op count = %v", d[0])
	}
	// Splitting must conserve descriptor mass.
	mid := an.NumOps() / 2
	d1 := an.Descriptor(Block{0, mid})
	d2 := an.Descriptor(Block{mid, an.NumOps()})
	for k := 0; k < DescriptorLen; k++ {
		if d1[k]+d2[k] != d[k] {
			t.Errorf("descriptor element %d not additive", k)
		}
	}
}

func TestValidate(t *testing.T) {
	if Validate(nil, 5) == nil {
		t.Error("empty partition must fail")
	}
	if Validate([]Block{{0, 3}}, 5) == nil {
		t.Error("non-covering partition must fail")
	}
	if Validate([]Block{{0, 3}, {4, 5}}, 5) == nil {
		t.Error("gapped partition must fail")
	}
	if Validate([]Block{{0, 3}, {3, 5}}, 5) != nil {
		t.Error("valid partition rejected")
	}
}

func TestPipelineEstimateSanity(t *testing.T) {
	tr, cm := chainTrace(t, 16, 4096, 4096)
	an := NewAnalysis(tr, cm)
	budget := max64(tr.TotalBytes()/4, an.MaxSingleOpBytes())
	blocks := an.Partition(budget)
	total, exposed := an.PipelineEstimate(blocks)
	if total < an.TotalComputeNS() {
		t.Error("pipelined total cannot beat pure compute")
	}
	if exposed < 0 || exposed > total {
		t.Errorf("exposed %d out of range", exposed)
	}
}

func TestRandomTracePartitionProperty(t *testing.T) {
	rng := mathx.NewRNG(99)
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(24)
		tr, cm := chainTrace(t, n, 512+rng.Intn(4096), 512+rng.Intn(4096))
		an := NewAnalysis(tr, cm)
		budget := max64(tr.TotalBytes()/int64(2+rng.Intn(5)), an.MaxSingleOpBytes())
		blocks := an.Partition(budget)
		if blocks == nil {
			t.Fatalf("trial %d infeasible", trial)
		}
		if err := Validate(blocks, an.NumOps()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, b := range blocks {
			if an.WorkingBytes(b) > budget {
				t.Fatalf("trial %d violates budget", trial)
			}
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
