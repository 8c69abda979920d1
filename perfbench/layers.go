package main

import (
	"fmt"

	"dynnoffload"
	"dynnoffload/internal/core"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/online"
	"dynnoffload/internal/pilot"
)

// replayInput is one model's inputs to the layer replay: the same model,
// platform, corpus, and runtime settings the facade ran the ops with.
type replayInput struct {
	model   dynnoffload.Model
	plat    dynnoffload.Platform
	train   []*dynnoffload.Sample
	test    []*dynnoffload.Sample
	faults  dynnoffload.FaultConfig
	memo    bool // serving engines memoize repeated requests
	fresh   bool // the facade builds a fresh engine per op (serve, cluster)
	batch   int  // RunBatch size: the workload's mean served batch
	workers int
	online  dynnoffload.OnlineConfig
	tenants int
}

// replayFigures are one model's per-call layer costs (from span self time)
// and the counts measured alongside them.
type replayFigures struct {
	dynnResolveUS, examplesUS, resolveUS float64
	trainMS, refineMS, contextMS         float64
	partitionUS, runSampleUS, simulateUS float64
	compileUS, batchUS, observeUS        float64
	retrainMS, candidates, exactShare    float64
	planHitShare, parallelSpeedup        float64
	// batchBreakdown sums the simulated breakdowns of the RunBatch replay:
	// every input once, through an engine configured like the op's.
	batchBreakdown dynnoffload.Breakdown
	batched        int
}

// replay runs the model's inputs through each layer's entry point, one call
// per span under parent. It rebuilds the context and the pilot the facade
// built — both are deterministic, so they match the facade's exactly — and
// drives fresh engines, so nothing the timed ops measured is disturbed.
func replay(sp *spans, parent int, in replayInput) (replayFigures, error) {
	var f replayFigures
	from := len(sp.all)
	call := func(name string, fn func() error) error {
		id := sp.start(name, -1, parent)
		err := fn()
		sp.end(id)
		return err
	}

	pcfg := pilotConfig()
	var ctx *pilot.ModelContext
	err := call("pilot.NewModelContext", func() error {
		var err error
		ctx, err = pilot.NewModelContext(in.model, gpusim.NewCostModel(in.plat), in.plat.GPU.MemBytes/2, pcfg.MaxBlocks)
		return err
	})
	if err != nil {
		return f, fmt.Errorf("replay: context: %w", err)
	}
	for _, info := range ctx.Paths {
		if err := call("sentinel.Analysis.Partition", func() error {
			if info.Analysis.Partition(ctx.Budget) == nil {
				return fmt.Errorf("replay: path %q has no partition at budget %d", info.Key, ctx.Budget)
			}
			return nil
		}); err != nil {
			return f, err
		}
	}
	for _, s := range in.test {
		if err := call("dynn.Model.Resolve", func() error {
			_, err := in.model.Resolve(s)
			return err
		}); err != nil {
			return f, fmt.Errorf("replay: resolve sample %d: %w", s.ID, err)
		}
	}
	var trainExs, exs []*pilot.Example
	err = call("pilot.BuildExamples", func() error {
		var err error
		trainExs, err = pilot.BuildExamples(ctx, pcfg.Features, in.train)
		return err
	})
	if err == nil {
		err = call("pilot.BuildExamples", func() error {
			var err error
			exs, err = pilot.BuildExamples(ctx, pcfg.Features, in.test)
			return err
		})
	}
	if err != nil {
		return f, fmt.Errorf("replay: examples: %w", err)
	}

	p := pilot.New(pcfg)
	_ = call("pilot.Pilot.Train", func() error { p.Train(trainExs); return nil })
	mispredicted := make([]bool, len(exs))
	var exact int
	for i, ex := range exs {
		var res pilot.Resolution
		if err := call("pilot.Pilot.Resolve", func() error {
			var err error
			res, err = p.Resolve(ex)
			return err
		}); err != nil {
			return f, fmt.Errorf("replay: pilot resolve: %w", err)
		}
		mispredicted[i] = res.Path == nil || res.Path.Key != ex.TruthKey
		if res.Exact {
			exact++
		}
	}
	f.candidates = float64(len(ctx.Paths))
	f.exactShare = share(float64(exact), float64(len(exs)))

	// Refine at the online learner's minibatch size, on a clone so the
	// pilot the engines below use stays the offline-trained one.
	const minibatch = 32
	q := p.Clone()
	for i := 0; i+minibatch <= len(exs) && i < 4*minibatch; i += minibatch {
		batch := exs[i : i+minibatch]
		if err := call("pilot.Pilot.Refine", func() error {
			_, err := q.Refine(batch, pilot.RefineConfig{LR: 0.01, Momentum: 0.9, Epochs: 1, Seed: uint64(i)})
			return err
		}); err != nil {
			return f, fmt.Errorf("replay: refine: %w", err)
		}
	}

	plans := core.NewPlanCache()
	engine := func(shared *core.PlanCache) *core.Engine {
		cfg := core.DefaultConfig(in.plat)
		cfg.Plans = shared
		cfg.MemoizeSamples = in.memo
		if in.faults.Rate > 0 {
			cfg.Faults = faults.New(in.faults)
		}
		return core.NewEngine(cfg, p)
	}

	// Plan-cache hit share over a warm-up op and one op, with engines
	// reused or rebuilt per op the way the facade does it.
	eng := engine(plans)
	if _, err := eng.RunEpoch(exs); err != nil {
		return f, fmt.Errorf("replay: warm-up epoch: %w", err)
	}
	if in.fresh {
		eng = engine(plans)
	}
	if _, err := eng.RunEpoch(exs); err != nil {
		return f, fmt.Errorf("replay: epoch: %w", err)
	}
	st := plans.Stats()
	f.planHitShare = share(float64(st.Hits), float64(st.Hits+st.Misses))

	// Serial RunSample on a warm engine.
	for _, ex := range exs {
		if err := call("core.Engine.RunSample", func() error {
			_, err := eng.RunSample(ex)
			return err
		}); err != nil {
			return f, fmt.Errorf("replay: run sample: %w", err)
		}
	}

	// Warm SimulatePartition on each sample's truth path, then the same on
	// cold engines without the shared cache (one plan compilation each).
	warm := core.NewEngine(core.DefaultConfig(in.plat), p)
	seen := map[*pilot.PathInfo]bool{}
	var distinct []*pilot.PathInfo
	for _, ex := range exs {
		info := ctx.PathByKey(ex.TruthKey)
		if info == nil {
			return f, fmt.Errorf("replay: truth path %q: %w", ex.TruthKey, dynnoffload.ErrUnknownPath)
		}
		if !seen[info] {
			seen[info] = true
			distinct = append(distinct, info)
			warm.SimulatePartition(info.Analysis, info.Blocks)
		}
	}
	for _, ex := range exs {
		info := ctx.PathByKey(ex.TruthKey)
		_ = call("core.Engine.SimulatePartition", func() error {
			warm.SimulatePartition(info.Analysis, info.Blocks)
			return nil
		})
	}
	for i, info := range distinct {
		if i == 32 {
			break
		}
		cold := core.NewEngine(core.DefaultConfig(in.plat), p)
		_ = call("core.Engine.SimulatePartition.cold", func() error {
			cold.SimulatePartition(info.Analysis, info.Blocks)
			return nil
		})
	}

	// Serial versus two-worker epochs on fresh engines over warm plans.
	for r := 0; r < 3; r++ {
		a, b := engine(plans), engine(plans)
		if err := call("core.Engine.RunEpoch", func() error { _, err := a.RunEpoch(exs); return err }); err != nil {
			return f, fmt.Errorf("replay: serial epoch: %w", err)
		}
		if err := call("core.Engine.ParallelRunEpoch", func() error {
			_, err := b.ParallelRunEpoch(exs, core.EpochOptions{Workers: 2})
			return err
		}); err != nil {
			return f, fmt.Errorf("replay: parallel epoch: %w", err)
		}
	}

	batcher := engine(plans)
	for i := 0; i < len(exs); i += in.batch {
		chunk := exs[i:min(i+in.batch, len(exs))]
		var results []core.SampleResult
		if err := call("core.Engine.RunBatch", func() error {
			var err error
			results, err = batcher.RunBatch(chunk, core.EpochOptions{Workers: in.workers})
			return err
		}); err != nil {
			return f, fmt.Errorf("replay: batch: %w", err)
		}
		for _, r := range results {
			f.batchBreakdown = f.batchBreakdown.Add(r.Breakdown)
		}
		f.batched += len(chunk)
	}

	learner, err := online.New(in.online, p, in.tenants)
	if err != nil {
		return f, fmt.Errorf("replay: online: %w", err)
	}
	for r := 0; r < 2; r++ {
		for i, ex := range exs {
			id := sp.start("online.Learner.Observe", -1, parent)
			stall, err := learner.Observe(i%in.tenants, ex, mispredicted[i])
			sp.end(id)
			if err != nil {
				return f, fmt.Errorf("replay: observe: %w", err)
			}
			if stall > 0 {
				sp.rename(id, "online.Learner.Observe.retrain")
			}
		}
	}

	agg := sp.bySelfFrom(from)
	f.contextMS = agg["pilot.NewModelContext"].perCallUS() / 1e3
	f.partitionUS = agg["sentinel.Analysis.Partition"].perCallUS()
	f.dynnResolveUS = agg["dynn.Model.Resolve"].perCallUS()
	f.examplesUS = float64(agg["pilot.BuildExamples"].SelfNS) / float64(len(trainExs)+len(exs)) / 1e3
	f.trainMS = agg["pilot.Pilot.Train"].perCallUS() / 1e3
	f.resolveUS = agg["pilot.Pilot.Resolve"].perCallUS()
	f.refineMS = agg["pilot.Pilot.Refine"].perCallUS() / 1e3
	f.runSampleUS = agg["core.Engine.RunSample"].perCallUS()
	f.simulateUS = agg["core.Engine.SimulatePartition"].perCallUS()
	f.compileUS = agg["core.Engine.SimulatePartition.cold"].perCallUS()
	f.batchUS = float64(agg["core.Engine.RunBatch"].SelfNS) / float64(f.batched) / 1e3
	f.observeUS = agg["online.Learner.Observe"].perCallUS()
	f.retrainMS = agg["online.Learner.Observe.retrain"].perCallUS() / 1e3
	f.parallelSpeedup = share(float64(agg["core.Engine.RunEpoch"].SelfNS), float64(agg["core.Engine.ParallelRunEpoch"].SelfNS))
	return f, nil
}

// replayAll replays every model and averages the per-call figures over
// them (each model's inputs are the same size).
func replayAll(sp *spans, ins []replayInput) (replayFigures, error) {
	parent := sp.start("replay", -1, 0)
	defer sp.end(parent)
	var sum replayFigures
	for _, in := range ins {
		f, err := replay(sp, parent, in)
		if err != nil {
			return sum, err
		}
		sum.add(f)
	}
	sum.scale(1 / float64(len(ins)))
	return sum, nil
}

func (f *replayFigures) add(o replayFigures) {
	for i, p := range f.floats() {
		*p += *o.floats()[i]
	}
	f.batchBreakdown = f.batchBreakdown.Add(o.batchBreakdown)
	f.batched += o.batched
}

func (f *replayFigures) scale(k float64) {
	for _, p := range f.floats() {
		*p *= k
	}
}

func (f *replayFigures) floats() []*float64 {
	return []*float64{
		&f.dynnResolveUS, &f.examplesUS, &f.resolveUS, &f.trainMS, &f.refineMS, &f.contextMS,
		&f.partitionUS, &f.runSampleUS, &f.simulateUS, &f.compileUS, &f.batchUS, &f.observeUS,
		&f.retrainMS, &f.candidates, &f.exactShare, &f.planHitShare, &f.parallelSpeedup,
	}
}

// metrics renders the replayed per-call figures under their metric names.
func (f replayFigures) metrics(m map[string]float64) {
	m["dynn.resolve_us"] = f.dynnResolveUS
	m["pilot.examples_us"] = f.examplesUS
	m["pilot.resolve_us"] = f.resolveUS
	m["pilot.candidates"] = f.candidates
	m["pilot.exact_share"] = f.exactShare
	m["pilot.train_ms"] = f.trainMS
	m["pilot.refine_ms"] = f.refineMS
	m["sentinel.context_ms"] = f.contextMS
	m["sentinel.partition_us"] = f.partitionUS
	m["core.run_sample_us"] = f.runSampleUS
	m["core.simulate_us"] = f.simulateUS
	m["core.plan_compile_us"] = f.compileUS
	m["core.plan_hit_share"] = f.planHitShare
	m["core.parallel_speedup"] = f.parallelSpeedup
	m["core.batch_us_per_request"] = f.batchUS
	m["online.observe_us"] = f.observeUS
	m["online.retrain_ms"] = f.retrainMS
}
