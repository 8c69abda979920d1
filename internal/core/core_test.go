package core

import (
	"errors"
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/pilot"
)

// testBench builds a small Tree-LSTM context under memory pressure plus a
// trained pilot.
func testBench(t *testing.T) (*pilot.ModelContext, []*pilot.Example, *pilot.Pilot, gpusim.Platform) {
	t.Helper()
	m := dynn.NewTreeLSTM(dynn.TreeLSTMConfig{Levels: 4, Hidden: 64, SeqLen: 8, Batch: 4, Seed: 5})
	base := gpusim.RTXPlatform()
	probe, err := pilot.NewModelContext(m, gpusim.NewCostModel(base), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var maxPeak, maxOp int64
	for _, info := range probe.Paths {
		if b := info.Analysis.PeakResidentBytes(); b > maxPeak {
			maxPeak = b
		}
		if b := info.Analysis.MaxSingleOpBytes(); b > maxOp {
			maxOp = b
		}
	}
	budget := maxPeak / 2
	if floor := 9 * maxOp / 4; budget < floor {
		budget = floor
	}
	plat := base.WithMemory(budget)
	ctx, err := pilot.NewModelContext(m, gpusim.NewCostModel(plat), plat.GPU.MemBytes/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	samples := dynn.GenerateSamples(21, 700, 8, 48)
	exs, err := pilot.BuildExamples(ctx, pilot.FeatureConfig{}, samples)
	if err != nil {
		t.Fatal(err)
	}
	p := pilot.New(pilot.Config{Neurons: 64, Epochs: 10, Seed: 2})
	p.Train(exs[:500])
	return ctx, exs[500:], p, plat
}

func TestEngineRunSample(t *testing.T) {
	_, test, p, plat := testBench(t)
	eng := NewEngine(DefaultConfig(plat), p)
	res, err := eng.RunSample(test[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.TotalNS() <= 0 {
		t.Error("zero simulated time")
	}
	if res.PilotNS <= 0 || res.MappingNS < 0 {
		t.Error("missing overhead measurements")
	}
	// The pilot's stopwatches stay beside the Breakdown: the engine models no
	// policy overhead of its own, so nothing wall-clock reaches the total.
	if res.Breakdown.OverheadNS != 0 {
		t.Errorf("OverheadNS = %d, want 0 (pilot wall time is reported in PilotNS)", res.Breakdown.OverheadNS)
	}
}

func TestEngineEpochAndMispredictions(t *testing.T) {
	_, test, p, plat := testBench(t)
	eng := NewEngine(DefaultConfig(plat), p)
	rep, err := eng.RunEpoch(test)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != len(test) {
		t.Errorf("samples = %d", rep.Samples)
	}
	if rep.Mispredictions < 0 || rep.Mispredictions > rep.Samples {
		t.Errorf("mispredictions = %d", rep.Mispredictions)
	}
	if rep.Breakdown.ComputeNS <= 0 {
		t.Error("no compute simulated")
	}
}

func TestMispredictionCacheReduces(t *testing.T) {
	_, test, p, plat := testBench(t)

	cfgOff := DefaultConfig(plat)
	cfgOff.HandleMispredictions = false
	engOff := NewEngine(cfgOff, p)
	repOff, err := engOff.RunEpoch(test)
	if err != nil {
		t.Fatal(err)
	}

	engOn := NewEngine(DefaultConfig(plat), p)
	repOn, err := engOn.RunEpoch(test)
	if err != nil {
		t.Fatal(err)
	}
	if repOn.Mispredictions > repOff.Mispredictions {
		t.Errorf("handling increased mispredictions: %d > %d", repOn.Mispredictions, repOff.Mispredictions)
	}
	if repOff.Mispredictions > 0 && engOn.CacheStats().Entries == 0 {
		t.Error("cache empty despite mispredictions")
	}
}

// TestMemoizeSamples: with the sample memo on, a re-submitted request that
// mis-predicted the first time resolves from the memo (no second
// mis-prediction); with the memo off (the default), the mis-prediction
// repeats.
func TestMemoizeSamples(t *testing.T) {
	_, test, p, plat := testBench(t)
	cfg := DefaultConfig(plat)
	cfg.HandleMispredictions = false // isolate the memo from the §IV-E cache
	cfg.MemoizeSamples = true
	eng := NewEngine(cfg, p)
	var ex *pilot.Example
	for _, cand := range test {
		res, err := eng.RunSample(cand)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mispredicted {
			ex = cand
			break
		}
	}
	if ex == nil {
		t.Skip("fixture produced no mis-prediction to memoize")
	}
	again, err := eng.RunSample(ex)
	if err != nil {
		t.Fatal(err)
	}
	if again.Mispredicted {
		t.Error("memoized re-submission still mis-predicted")
	}
	if !again.CacheHit {
		t.Error("memo resolution not flagged as a cache hit")
	}

	offCfg := DefaultConfig(plat)
	offCfg.HandleMispredictions = false
	off := NewEngine(offCfg, p)
	first, err := off.RunSample(ex)
	if err != nil {
		t.Fatal(err)
	}
	second, err := off.RunSample(ex)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Mispredicted || !second.Mispredicted {
		t.Error("memo off: the mis-prediction should repeat on re-submission")
	}
}

func TestPipelinedNoWorseThanOnDemand(t *testing.T) {
	ctx, _, _, plat := testBench(t)
	eng := NewEngine(DefaultConfig(plat), nil)
	for _, info := range ctx.Paths[:4] {
		plan := eng.planFor(info)
		pipe, err := eng.simulatePipelined(plan, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		demand := eng.simulateOnDemand(plan, nil, nil)
		if pipe.TotalNS() > demand.TotalNS() {
			t.Errorf("pipelined %d > on-demand %d", pipe.TotalNS(), demand.TotalNS())
		}
		if pipe.ComputeNS != demand.ComputeNS {
			t.Errorf("compute differs: %d vs %d", pipe.ComputeNS, demand.ComputeNS)
		}
	}
}

func TestFastPathWhenFits(t *testing.T) {
	m := dynn.NewTreeLSTM(dynn.TreeLSTMConfig{Levels: 4, Hidden: 16, SeqLen: 8, Batch: 1, Seed: 5})
	plat := gpusim.RTXPlatform() // 23 GB: tiny model fits trivially
	ctx, err := pilot.NewModelContext(m, gpusim.NewCostModel(plat), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(DefaultConfig(plat), nil)
	info := ctx.Paths[0]
	bd := eng.SimulatePartition(info.Analysis, info.Blocks)
	if bd.ExposedXferNS != 0 || bd.H2DBytes != 0 {
		t.Error("in-memory model must not migrate")
	}
	if bd.ComputeNS != info.Analysis.TotalComputeNS() {
		t.Error("fast path compute mismatch")
	}
}

func TestCheckCapacityErrors(t *testing.T) {
	ctx, _, _, _ := testBench(t)
	tiny := gpusim.RTXPlatform().WithMemory(1024)
	tiny.CPUMemBytes = 2048
	eng := NewEngine(DefaultConfig(tiny), nil)
	if err := eng.checkCapacity(ctx.Paths[0]); err == nil {
		t.Error("tiny platform must fail capacity check")
	}
}

// TestUntrainedPilotSentinel checks the sentinel-error layering of the
// engine's pilot guard: an untrained (but non-nil) pilot fails with
// ErrPilotNotTrained, and because that sentinel wraps pilot.ErrNotTrained,
// errors.Is matches against either error family.
func TestUntrainedPilotSentinel(t *testing.T) {
	_, test, _, plat := testBench(t)
	untrained := pilot.New(pilot.Config{Neurons: 8})
	eng := NewEngine(DefaultConfig(plat), untrained)

	_, err := eng.RunSample(test[0])
	if !errors.Is(err, ErrPilotNotTrained) {
		t.Errorf("RunSample err = %v, want ErrPilotNotTrained", err)
	}
	if !errors.Is(err, pilot.ErrNotTrained) {
		t.Errorf("RunSample err = %v does not match pilot.ErrNotTrained", err)
	}

	_, err = eng.ParallelRunEpoch(test, EpochOptions{Workers: 4})
	if !errors.Is(err, ErrPilotNotTrained) || !errors.Is(err, pilot.ErrNotTrained) {
		t.Errorf("ParallelRunEpoch err = %v, want both not-trained sentinels", err)
	}

	_, err = eng.RunEpoch(test[:1])
	if !errors.Is(err, ErrPilotNotTrained) {
		t.Errorf("RunEpoch err = %v, want ErrPilotNotTrained", err)
	}
}
