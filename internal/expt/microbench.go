package expt

import (
	"fmt"

	"dynnoffload/internal/core"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/online"
	"dynnoffload/internal/serve"
)

// MicroBenchResult is one timed hot-path loop: iterations and mean wall time
// per operation. These are the runtime's inner loops — what every epoch,
// sweep, and serving batch ultimately spends its time in.
type MicroBenchResult struct {
	Name    string  `json:"name"`
	Model   string  `json:"model"`
	Iters   int     `json:"iters"`
	TotalNS int64   `json:"total_ns"`
	NsPerOp float64 `json:"ns_per_op"`
}

// MicroBench times the runtime's hot paths for one zoo model:
//
//   - graph_resolve: graph.Resolve over the model's test-split decision
//     vectors (the per-sample dynamic-architecture instantiation cost);
//   - des_iteration: Engine.SimulatePartition (the plan-driven
//     double-buffered DES) over the model's first path, warm — the
//     steady-state per-sample cost with the resolved-plan cache serving;
//   - plan_cache_miss: the same loop against a cold engine every iteration,
//     so each run pays plan compilation (the liveness walks and partition
//     tables) before simulating — what one sweep grid point pays per path
//     without the shared cache;
//   - plan_cache_hit: the shared PlanCache lookup by the engines' own L2 keys
//     (core.PlanCacheKey) on a warmed cache — what a ParallelRunEpoch worker
//     or sweep cell pays to skip compilation;
//   - serve_step: mean end-to-end cost per served request through the
//     multi-tenant front end (admission, EDF batch selection, reservation,
//     RunBatch dispatch) under a saturating single-tenant arrival stream;
//   - online_retrain: one online-learning retrain stall — replay-ring insert,
//     seeded minibatch draw, and the shared-pilot Refine — at steady-state
//     ring width.
//
// iters bounds each loop; the per-op mean divides measured wall time by the
// iterations actually run. plan_cache_hit multiplies iters up: a lock-free
// map read needs far more repetitions than the timer's resolution.
func MicroBench(w *Workbench, model string, iters int) ([]MicroBenchResult, error) {
	mb := w.Bench(model)
	if mb == nil {
		return nil, fmt.Errorf("expt: no bench model %q", model)
	}
	if iters <= 0 {
		iters = 100
	}

	static := mb.Model.Static()
	decisions := make([][]int, 0, len(mb.Test))
	for _, ex := range mb.Test {
		decisions = append(decisions, mb.Model.Decide(ex.Sample))
	}
	if len(decisions) == 0 {
		return nil, fmt.Errorf("expt: %s has no test samples to resolve", model)
	}
	sw := obsv.StartTimer()
	for i := 0; i < iters; i++ {
		if _, err := graph.Resolve(static, decisions[i%len(decisions)]); err != nil {
			return nil, fmt.Errorf("expt: %s resolve: %w", model, err)
		}
	}
	resolveNS := sw.ElapsedNS()

	eng := w.Engine(mb)
	info := mb.Ctx.Paths[0]
	eng.SimulatePartition(info.Analysis, info.Blocks) // compile outside the timer
	sw = obsv.StartTimer()
	for i := 0; i < iters; i++ {
		eng.SimulatePartition(info.Analysis, info.Blocks)
	}
	desNS := sw.ElapsedNS()

	// Cold engines built outside the timer: each iteration then measures one
	// plan compilation plus the simulation it feeds.
	cold := make([]*core.Engine, iters)
	for i := range cold {
		cold[i] = core.NewEngine(core.DefaultConfig(mb.Platform), w.Pilot)
	}
	sw = obsv.StartTimer()
	for i := 0; i < iters; i++ {
		cold[i].SimulatePartition(info.Analysis, info.Blocks)
	}
	missNS := sw.ElapsedNS()

	// Warm the shared L2 with every truth path the serving pool exercises,
	// then time lookups by the exact keys engines file plans under.
	if _, err := eng.RunBatch(mb.Test, core.EpochOptions{Workers: w.Opts.Workers}); err != nil {
		return nil, fmt.Errorf("expt: %s plan-cache warmup: %w", model, err)
	}
	capacity := mb.Platform.GPU.MemBytes
	keys := make([]string, 0, len(mb.Test))
	for _, ex := range mb.Test {
		if k := core.PlanCacheKey(ex.Ctx.PathByKey(ex.TruthKey), capacity); k != "" {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("expt: %s has no plan-cache keys to probe", model)
	}
	hitIters := iters * 1000
	sw = obsv.StartTimer()
	for i := 0; i < hitIters; i++ {
		if _, ok := w.Plans.Lookup(keys[i%len(keys)]); !ok {
			return nil, fmt.Errorf("expt: %s plan cache cold after warmup (key %d)", model, i%len(keys))
		}
	}
	hitNS := sw.ElapsedNS()

	serveNS, served, err := benchServeSteps(w, mb, iters)
	if err != nil {
		return nil, err
	}

	retrainNS, err := benchOnlineRetrain(w, mb, iters)
	if err != nil {
		return nil, err
	}

	perOp := func(ns int64, n int) float64 { return float64(ns) / float64(n) }
	return []MicroBenchResult{
		{Name: "graph_resolve", Model: model, Iters: iters, TotalNS: resolveNS, NsPerOp: perOp(resolveNS, iters)},
		{Name: "des_iteration", Model: model, Iters: iters, TotalNS: desNS, NsPerOp: perOp(desNS, iters)},
		{Name: "plan_cache_miss", Model: model, Iters: iters, TotalNS: missNS, NsPerOp: perOp(missNS, iters)},
		{Name: "plan_cache_hit", Model: model, Iters: hitIters, TotalNS: hitNS, NsPerOp: perOp(hitNS, hitIters)},
		{Name: "serve_step", Model: model, Iters: served, TotalNS: serveNS, NsPerOp: perOp(serveNS, served)},
		{Name: "online_retrain", Model: model, Iters: iters, TotalNS: retrainNS, NsPerOp: perOp(retrainNS, iters)},
	}, nil
}

// benchOnlineRetrain times the online learner's retrain stall — ring insert,
// seeded minibatch draw, and the shared-pilot Refine — with TrainingInterval
// 1, so every timed Observe pays one full retrain. The ring is pre-filled
// past the minibatch size outside the timer so each retrain samples at the
// steady-state width.
func benchOnlineRetrain(w *Workbench, mb *ModelBench, n int) (int64, error) {
	l, err := online.New(online.Config{Enabled: true, TrainingInterval: 1}, w.Pilot, 0)
	if err != nil {
		return 0, fmt.Errorf("expt: %s online_retrain: %w", mb.Entry.Name, err)
	}
	exs := mb.Test
	for i := 0; i < 64; i++ {
		if _, err := l.Observe(0, exs[i%len(exs)], i%3 == 0); err != nil {
			return 0, fmt.Errorf("expt: %s online_retrain warmup: %w", mb.Entry.Name, err)
		}
	}
	sw := obsv.StartTimer()
	for i := 0; i < n; i++ {
		if _, err := l.Observe(0, exs[i%len(exs)], i%3 == 0); err != nil {
			return 0, fmt.Errorf("expt: %s online_retrain: %w", mb.Entry.Name, err)
		}
	}
	return sw.ElapsedNS(), nil
}

// benchServeSteps plays a saturating single-tenant stream of n requests
// through the serving front end and returns the wall time and the number of
// requests actually completed (the queue is sized so none shed).
func benchServeSteps(w *Workbench, mb *ModelBench, n int) (int64, int, error) {
	cfg := serve.Config{
		Tenants: []serve.TenantConfig{{
			Name: "bench", Requests: n, RatePerSec: 1e6,
			Seed: w.Opts.Seed + 7, MaxQueue: n,
		}},
		Workers: w.Opts.Workers,
	}
	backend := &serve.ClusterBackend{Engines: []*core.Engine{wbServeEngine(w, mb)}, Pool: mb.Test}
	sw := obsv.StartTimer()
	rep, err := serve.RunCluster(backend, serve.ClusterConfig{Config: cfg})
	ns := sw.ElapsedNS()
	if err != nil {
		return 0, 0, fmt.Errorf("expt: %s serve_step: %w", mb.Entry.Name, err)
	}
	if rep.Total.Completed == 0 {
		return 0, 0, fmt.Errorf("expt: %s serve_step completed no requests", mb.Entry.Name)
	}
	return ns, int(rep.Total.Completed), nil
}

// wbServeEngine is the serve_step backend: the sweep engine with memoization
// off, so every step pays the plan-cache path rather than the per-sample memo.
func wbServeEngine(w *Workbench, mb *ModelBench) *core.Engine {
	cfg := core.DefaultConfig(mb.Platform)
	cfg.Plans = w.Plans
	return core.NewEngine(cfg, w.Pilot)
}

// CompareBench is the benchmark-regression gate: every baseline benchmark
// must appear in cur, and its ns/op may not exceed the baseline by more than
// maxRegressPct percent. It returns one human-readable line per baseline
// benchmark, and an error naming every regression (or any baseline benchmark
// the current suite dropped). Speedups and benchmarks new in cur pass freely.
func CompareBench(cur, base []MicroBenchResult, maxRegressPct float64) ([]string, error) {
	curByName := map[string]MicroBenchResult{}
	for _, r := range cur {
		curByName[r.Name+"/"+r.Model] = r
	}
	var lines []string
	var failures []string
	for _, b := range base {
		key := b.Name + "/" + b.Model
		c, ok := curByName[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but missing from current suite", key))
			continue
		}
		limit := b.NsPerOp * (1 + maxRegressPct/100)
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		}
		status := "ok"
		if c.NsPerOp > limit {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%+.1f%%, limit +%.0f%%)",
				key, c.NsPerOp, b.NsPerOp, delta, maxRegressPct))
		}
		lines = append(lines, fmt.Sprintf("%-32s %12.0f ns/op  baseline %12.0f  %+7.1f%%  %s",
			key, c.NsPerOp, b.NsPerOp, delta, status))
	}
	if len(failures) > 0 {
		return lines, fmt.Errorf("benchcheck: %d regression(s) beyond +%.0f%%:\n  %s",
			len(failures), maxRegressPct, joinLines(failures))
	}
	return lines, nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}
