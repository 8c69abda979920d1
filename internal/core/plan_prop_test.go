package core

import (
	"reflect"
	"testing"

	"dynnoffload/internal/faults"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// planSchedule runs one fresh-engine traced epoch, optionally attached to a
// shared PlanCache, and returns the epoch report (wall-measured overhead stripped),
// the canonical span set and the engine.
func planSchedule(t *testing.T, b *propBench, fc faults.Config, workers int, plans *PlanCache) (EpochReport, []obsv.Span, *Engine) {
	t.Helper()
	cfg := DefaultConfig(b.plat)
	cfg.Plans = plans
	if fc.Rate > 0 {
		cfg.Faults = faults.New(fc)
	}
	eng := NewEngine(cfg, b.p)
	tracer := obsv.NewTracer()
	rep, err := eng.ParallelRunEpoch(b.test, EpochOptions{Workers: workers, Tracer: tracer})
	if err != nil {
		t.Fatalf("%s: %+v workers=%d: %v", b.name, fc, workers, err)
	}
	rep.PilotNS, rep.MappingNS = 0, 0
	return rep, tracer.Spans(), eng
}

// TestPlanCacheBitIdentical is the plan-cache acceptance property. The
// reference is a one-worker epoch on a private engine with no shared cache,
// every plan in whose own cache must deep-equal a fresh compile of its path.
// With a shared cache instead, every epoch aggregate — Samples, Mispredictions,
// CacheHits, the full virtual-time Breakdown, the fault counters — and the
// entire simulated-time span set are bit-identical to that reference, across
// 1/2/4/8 workers, fault-free and faulted. Plans are pure functions of their
// inputs; this pins it.
func TestPlanCacheBitIdentical(t *testing.T) {
	for _, b := range propModels(t) {
		for _, fc := range []faults.Config{{}, {Seed: 11, Rate: 0.2}} {
			refRep, refSpans, ref := planSchedule(t, b, fc, 1, nil)
			own := *ref.plans.m.Load()
			if len(own) == 0 {
				t.Fatalf("%s: %+v: the reference engine compiled no plans", b.name, fc)
			}
			for k, plan := range own {
				info := k.path
				if fresh := buildResolvedPlan(info.Analysis, info.Blocks, b.plat.GPU.MemBytes); !reflect.DeepEqual(plan, fresh) {
					t.Fatalf("%s: %+v: cached plan for %s differs from a fresh compile", b.name, fc, info.Key)
				}
			}
			if len(refSpans) == 0 {
				t.Fatalf("%s: %+v: empty reference span set", b.name, fc)
			}
			if refRep.Breakdown.H2DBytes == 0 {
				t.Fatalf("%s: no migration traffic — the property would be vacuous", b.name)
			}
			shared := NewPlanCache()
			for _, workers := range []int{1, 2, 4, 8} {
				rep, spans, _ := planSchedule(t, b, fc, workers, shared)
				if rep != refRep {
					t.Fatalf("%s: %+v: plan cache changed the epoch report at %d workers:\n got %+v\nwant %+v",
						b.name, fc, workers, rep, refRep)
				}
				if !reflect.DeepEqual(spans, refSpans) {
					i := 0
					for i < len(spans) && i < len(refSpans) && spans[i] == refSpans[i] {
						i++
					}
					t.Fatalf("%s: %+v: span set diverges with the plan cache at %d workers (len %d vs %d, first diff at span %d)",
						b.name, fc, workers, len(spans), len(refSpans), i)
				}
			}
			if st := shared.Stats(); st.Hits == 0 || st.Entries == 0 {
				t.Fatalf("%s: %+v: shared cache never hit (%+v) — the equivalence never exercised sharing", b.name, fc, st)
			}
		}
	}
}

// TestPlanCacheSharedAcrossEngines pins the sweep-amortization contract:
// engines built per grid cell against one shared PlanCache produce the same
// results as isolated engines, and the second engine serves its plans from
// the first engine's inserts (hits, no new entries).
func TestPlanCacheSharedAcrossEngines(t *testing.T) {
	b := propModels(t)[0]
	shared := NewPlanCache()
	rep1, _, _ := planSchedule(t, b, faults.Config{}, 2, shared)
	entries := shared.Stats().Entries
	if entries == 0 {
		t.Fatal("first engine inserted no plans")
	}
	hitsBefore := shared.Stats().Hits
	rep2, _, _ := planSchedule(t, b, faults.Config{}, 2, shared)
	if rep1 != rep2 {
		t.Fatalf("shared plans changed results across engines:\n got %+v\nwant %+v", rep2, rep1)
	}
	st := shared.Stats()
	if st.Entries != entries {
		t.Fatalf("second engine grew the cache: %d -> %d entries", entries, st.Entries)
	}
	if st.Hits <= hitsBefore {
		t.Fatalf("second engine never hit the shared cache: %+v", st)
	}
}

// TestPlanCacheSeparatesCapacities pins the GPU capacity as part of a plan's key:
// two engines at different capacities, both still offloading, share one
// PlanCache, and each runs from plans compiled at its own capacity (the
// pipelined residency peak is replayed per capacity). The cache holds one
// entry per (path, capacity).
func TestPlanCacheSeparatesCapacities(t *testing.T) {
	b := propModels(t)[0]
	paths := map[*pilot.PathInfo]bool{}
	for _, ex := range b.test {
		paths[ex.Ctx.PathByKey(ex.TruthKey)] = true
	}
	shared := NewPlanCache()
	plats := []gpusim.Platform{b.plat, b.plat.WithMemory(b.plat.GPU.MemBytes * 5 / 4)}
	for _, plat := range plats {
		cfg := DefaultConfig(plat)
		cfg.Plans = shared
		rep, err := NewEngine(cfg, b.p).RunEpoch(b.test)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Breakdown.H2DBytes == 0 {
			t.Fatalf("%s: no offloading at %d GPU bytes — the property would be vacuous", b.name, plat.GPU.MemBytes)
		}
	}
	if got, want := shared.Stats().Entries, len(plats)*len(paths); got != want {
		t.Fatalf("%s: %d cached plans, want one per (path, capacity) = %d", b.name, got, want)
	}
	for _, plat := range plats {
		capacity := plat.GPU.MemBytes
		for info := range paths {
			plan, ok := shared.Lookup(info, capacity)
			if !ok {
				t.Fatalf("%s: no plan for %s at %d bytes", b.name, info.Key, capacity)
			}
			if fresh := buildResolvedPlan(info.Analysis, info.Blocks, capacity); !reflect.DeepEqual(plan, fresh) {
				t.Fatalf("%s: plan for %s at %d bytes differs from a fresh compile at that capacity", b.name, info.Key, capacity)
			}
		}
	}
}

// TestPartitionPlanEquivalence pins the SimulatePartition cache: repeated
// calls (plan compiled once, then served from the PlanCache) return the
// same breakdown as the DES run on a freshly compiled plan, for the truth
// paths of every fixture model's first test samples.
func TestPartitionPlanEquivalence(t *testing.T) {
	for _, b := range propModels(t) {
		cached := NewEngine(DefaultConfig(b.plat), b.p)
		for _, ex := range b.test[:4] {
			info := ex.Ctx.PathByKey(ex.TruthKey)
			want, err := cached.simulatePipelined(buildResolvedPlan(info.Analysis, info.Blocks, b.plat.GPU.MemBytes), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				if got := cached.SimulatePartition(info.Analysis, info.Blocks); got != want {
					t.Fatalf("%s %s rep %d: cached partition diverges:\n got %+v\nwant %+v",
						b.name, info.Key, rep, got, want)
				}
			}
		}
	}
}

// BenchmarkPlanCacheHitParallel times warm PlanCache.Lookup calls from
// every goroutine RunParallel starts (one per -cpu), over 64 cached paths.
// Each hit reads the map pointer and bumps the hit counter; run it at
// -cpu 1,2 to see what lookups on two cores cost each other.
func BenchmarkPlanCacheHitParallel(b *testing.B) {
	const capacity = 16 << 30
	c := NewPlanCache()
	infos := make([]*pilot.PathInfo, 64)
	for i := range infos {
		infos[i] = &pilot.PathInfo{}
		c.insert(planID{path: infos[i], capacity: capacity}, &ResolvedPlan{})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.Lookup(infos[i%len(infos)], capacity); !ok {
				b.Error("plan cache cold after warmup")
				return
			}
			i++
		}
	})
}
