package core

import (
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/pilot"
	"dynnoffload/internal/sentinel"
)

// TestEngineMatchesPipelineEstimate checks that the runtime simulation and
// the partitioner's objective agree: the partition Sentinel chose (optimal
// under PipelineEstimate) must not lose to an even split under the engine's
// richer simulation — otherwise the offline labels would train the pilot
// toward partitions the runtime dislikes.
func TestEngineMatchesPipelineEstimate(t *testing.T) {
	m := dynn.NewVarBERT(dynn.VarBERTConfig{Layers: 8, Hidden: 256, SeqLen: 32, Batch: 8, Groups: 4, Seed: 3})
	base := gpusim.A100Platform()
	probe, err := pilot.NewModelContext(m, gpusim.NewCostModel(base), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var maxPeak int64
	for _, info := range probe.Paths {
		if b := info.Analysis.PeakResidentBytes(); b > maxPeak {
			maxPeak = b
		}
	}
	plat := base.WithMemory(maxPeak / 2)
	ctx, err := pilot.NewModelContext(m, gpusim.NewCostModel(plat), plat.GPU.MemBytes/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(DefaultConfig(plat), nil)

	for _, info := range ctx.Paths[:4] {
		an := info.Analysis
		chosen := eng.SimulatePartition(an, info.Blocks).TotalNS()
		for n := len(info.Blocks); n <= len(info.Blocks)+4; n++ {
			alt := an.EvenTime(n)
			if sentinel.Validate(alt, an.NumOps()) != nil {
				continue
			}
			feasible := true
			for _, b := range alt {
				if an.WorkingBytes(b) > ctx.Budget {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			if altNS := eng.SimulatePartition(an, alt).TotalNS(); altNS < chosen*97/100 {
				t.Errorf("even-time(%d) beats the chosen partition by >3%%: %d vs %d", n, altNS, chosen)
			}
		}
	}
}

// TestEpochDeterminism: identical engines over identical examples must give
// identical simulated results (virtual time has no nondeterminism).
func TestEpochDeterminism(t *testing.T) {
	ctx, test, p, plat := testBench(t)
	_ = ctx
	a := NewEngine(DefaultConfig(plat), p)
	b := NewEngine(DefaultConfig(plat), p)
	ra, err := a.RunEpoch(test[:40])
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunEpoch(test[:40])
	if err != nil {
		t.Fatal(err)
	}
	if ra.Breakdown != rb.Breakdown || ra.Mispredictions != rb.Mispredictions {
		t.Errorf("nondeterministic epochs: %v vs %v", ra.Breakdown, rb.Breakdown)
	}
}
