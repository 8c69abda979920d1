package core

import (
	"sync"
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/pilot"
)

// propBench is one model under memory pressure with a trained pilot — the
// fixture for the fault-schedule properties.
type propBench struct {
	name string
	test []*pilot.Example
	plat gpusim.Platform
	p    *pilot.Pilot
}

var (
	propOnce    sync.Once
	propBenches []*propBench
)

// propModels builds the five-model fixture once per test binary: five
// dynamic zoo models whose liveness peak comfortably exceeds the
// double-buffer floor, each on a pressure-scaled platform (so offloading —
// and therefore fault injection — is actually exercised) with its own small
// pilot.
func propModels(t *testing.T) []*propBench {
	t.Helper()
	propOnce.Do(func() {
		names := map[string]bool{
			"Tree-CNN": true, "Tree-LSTM": true, "var-BERT": true, "MoE": true, "AlphaFold": true,
		}
		for _, entry := range dynn.Zoo() {
			if !names[entry.Name] {
				continue
			}
			m := entry.New(8, 5)
			base := gpusim.RTXPlatform()
			probe, err := pilot.NewModelContext(m, gpusim.NewCostModel(base), 0, 0)
			if err != nil {
				t.Fatalf("%s: %v", entry.Name, err)
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
			if budget >= maxPeak {
				t.Fatalf("%s: budget %d >= peak %d — model would take the in-memory fast path", entry.Name, budget, maxPeak)
			}
			plat := base.WithMemory(budget)
			plat.CPUMemBytes = 16 * maxPeak
			ctx, err := pilot.NewModelContext(m, gpusim.NewCostModel(plat), plat.GPU.MemBytes/2, 0)
			if err != nil {
				t.Fatalf("%s: %v", entry.Name, err)
			}
			samples := dynn.GenerateSamples(31, 175, 8, 40)
			exs, err := pilot.BuildExamples(ctx, pilot.FeatureConfig{}, samples)
			if err != nil {
				t.Fatalf("%s: %v", entry.Name, err)
			}
			p := pilot.New(pilot.Config{Neurons: 48, Epochs: 6, Seed: 2})
			p.Train(exs[:150])
			propBenches = append(propBenches, &propBench{name: entry.Name, test: exs[150:], plat: plat, p: p})
		}
		if len(propBenches) != 5 {
			t.Fatalf("fixture built %d models, want 5", len(propBenches))
		}
	})
	return propBenches
}

// runSchedule runs one fresh-engine epoch under a fault config (zero Rate =
// fault-free) and strips the wall-clock-measured overhead so reports compare
// bit-for-bit.
func runSchedule(t *testing.T, b *propBench, fc faults.Config, workers int) EpochReport {
	t.Helper()
	cfg := DefaultConfig(b.plat)
	if fc.Rate > 0 {
		cfg.Faults = faults.New(fc)
	}
	eng := NewEngine(cfg, b.p)
	var rep EpochReport
	var err error
	if workers <= 0 {
		rep, err = eng.RunEpoch(b.test)
	} else {
		rep, err = eng.ParallelRunEpoch(b.test, EpochOptions{Workers: workers})
	}
	if err != nil {
		t.Fatalf("%s: schedule %+v workers=%d: %v", b.name, fc, workers, err)
	}
	rep.PilotNS, rep.MappingNS = 0, 0
	return rep
}

// TestFaultSchedulesPreserveResults is the tentpole property: under 200
// random fault schedules spread over 5 models (40 each, rates up to 1.0),
// every epoch completes, and the semantic aggregates — Samples,
// Mispredictions, CacheHits — are bit-identical to the fault-free run.
// Faults perturb timing and traffic, never results.
func TestFaultSchedulesPreserveResults(t *testing.T) {
	rates := []float64{0.02, 0.05, 0.1, 0.25, 1.0}
	for _, b := range propModels(t) {
		ref := runSchedule(t, b, faults.Config{}, 0)
		if ref.Breakdown.H2DBytes == 0 {
			t.Fatalf("%s: no migration traffic — pressure config is not exercising offload", b.name)
		}
		var injected int64
		for i := 0; i < 40; i++ {
			fc := faults.Config{Seed: uint64(i)*7919 + 17, Rate: rates[i%len(rates)]}
			rep := runSchedule(t, b, fc, 0)
			if rep.Samples != ref.Samples || rep.Mispredictions != ref.Mispredictions || rep.CacheHits != ref.CacheHits {
				t.Fatalf("%s: schedule %+v changed results: got (%d,%d,%d), want (%d,%d,%d)",
					b.name, fc, rep.Samples, rep.Mispredictions, rep.CacheHits,
					ref.Samples, ref.Mispredictions, ref.CacheHits)
			}
			if rep.Breakdown.ComputeNS != ref.Breakdown.ComputeNS {
				t.Fatalf("%s: schedule %+v changed compute: %d vs %d",
					b.name, fc, rep.Breakdown.ComputeNS, ref.Breakdown.ComputeNS)
			}
			injected += rep.FaultCounters.Injected()
		}
		if injected == 0 {
			t.Errorf("%s: 40 schedules injected nothing — the property is vacuous", b.name)
		}
	}
}

// TestFaultCountersDeterministic pins the reproducibility acceptance bar:
// the same (seed, rate, model) replays identical fault/retry counters and an
// identical virtual-time breakdown across repeated runs and worker counts.
func TestFaultCountersDeterministic(t *testing.T) {
	for _, b := range propModels(t) {
		for _, fc := range []faults.Config{
			{Seed: 11, Rate: 0.05},
			{Seed: 97, Rate: 0.3},
			{Seed: 5, Rate: 1.0},
		} {
			serial1 := runSchedule(t, b, fc, 0)
			serial2 := runSchedule(t, b, fc, 0)
			par3 := runSchedule(t, b, fc, 3)
			par7 := runSchedule(t, b, fc, 7)
			for _, rep := range []EpochReport{serial2, par3, par7} {
				if rep.FaultCounters != serial1.FaultCounters {
					t.Fatalf("%s: %+v: counters diverge: %+v vs %+v", b.name, fc, rep.FaultCounters, serial1.FaultCounters)
				}
				if rep.Breakdown != serial1.Breakdown {
					t.Fatalf("%s: %+v: breakdown diverges: %+v vs %+v", b.name, fc, rep.Breakdown, serial1.Breakdown)
				}
			}
		}
	}
}

// TestRateOneCompletes pins the ladder's termination guarantee: even when
// every consultation faults, the final fault-blind rungs (blocking copy,
// evict-and-retry) let the epoch complete — ErrCapacityExceeded is reserved
// for genuine exhaustion, which injection alone can never cause.
func TestRateOneCompletes(t *testing.T) {
	b := propModels(t)[0]
	rep := runSchedule(t, b, faults.Config{Seed: 3, Rate: 1.0}, 0)
	if rep.Samples != len(b.test) {
		t.Fatalf("rate-1.0 epoch lost samples: %d of %d", rep.Samples, len(b.test))
	}
	c := rep.FaultCounters
	if c.Injected() == 0 || c.SyncFallbacks == 0 {
		t.Errorf("rate-1.0 run should exhaust retry budgets: %+v", c)
	}
	if c.Retries == 0 || c.BackoffNS == 0 {
		t.Errorf("no retry/backoff recorded: %+v", c)
	}
}
