// Package core is the DyNN-Offload runtime (§IV-E, §V): pilot-guided tensor
// prefetch over double-buffered GPU memory, an operator counter for CPU/GPU
// synchronization, evict-then-prefetch migration ordering, on-demand fallback
// on mis-prediction, and the mis-prediction cache that avoids repeated
// mis-predictions (§VI-H).
package core

import (
	"errors"
	"fmt"

	"dynnoffload/internal/faults"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// Typed sentinel errors so callers can errors.Is instead of matching message
// strings.
var (
	// ErrPilotNotTrained is returned when the runtime is asked to execute a
	// sample without a trained pilot model. It wraps pilot.ErrNotTrained so
	// errors.Is matches against either sentinel.
	ErrPilotNotTrained = fmt.Errorf("core: pilot not trained: %w", pilot.ErrNotTrained)
	// ErrUnknownPath is returned when a sample's path key does not resolve
	// in its model context. It is pilot.ErrUnknownPath itself, so a truth-path
	// lookup (pilot.ModelContext.TruthPath) fails with the same sentinel.
	ErrUnknownPath = pilot.ErrUnknownPath
	// ErrCapacityExceeded is returned when a path cannot run under the
	// platform's CPU+GPU memory or the double-buffer work budget.
	ErrCapacityExceeded = errors.New("core: capacity exceeded")
)

// Config tunes the runtime.
type Config struct {
	Platform gpusim.Platform
	// HandleMispredictions enables the §IV-E mis-prediction cache: identical
	// pilot outputs that previously mis-predicted reuse the corrected blocks.
	HandleMispredictions bool
	// Faults, when non-nil and enabled, injects deterministic transfer and
	// allocation faults into the simulated device; the engine recovers via
	// the retry budget (RetryMaxAttempts, RetryBackoffNS) and the
	// degradation ladder. Nil means fault-free.
	Faults *faults.Injector
	// ForceOnDemand routes every sample through the on-demand path,
	// regardless of prediction outcome — the FaultSweep baseline.
	ForceOnDemand bool
	// MemoizeSamples turns on the two serving-world memos, both keyed by
	// sample ID, for a world where the same request recurs:
	//   - the resolution memo (ResolutionMemo) reuses a request's pilot
	//     resolution while the resolving pilot's weights are unchanged, so a
	//     recurring request skips inference and mapping. It changes no
	//     outcome, only host time: every request still goes through the
	//     mis-prediction cache and this sample memo, and a hit reports
	//     PilotNS and MappingNS of 0;
	//   - the sample memo remembers the truth path of every mis-predicted
	//     request, so a re-submission prefetches the recorded path instead
	//     of repeating the mis-prediction — the online analog of the §IV-E
	//     cache, whose output keys cannot help when the pilot is confidently
	//     wrong (an exact-but-wrong match never engages it).
	// Off by default: training epochs measure pilot quality and its Table IV
	// and §VI-C wall cost, and a memo would hide both after the first epoch.
	MemoizeSamples bool
	// Resolutions, when non-nil with MemoizeSamples on, is a resolution memo
	// shared with other engines: the replicas of one serving run resolve
	// through the same pilots, so one memo serves them all. Nil gives each
	// engine a private memo.
	Resolutions *ResolutionMemo
	// Plans, when non-nil, is a resolved-plan cache shared with other
	// engines: engines built for different sweep grid points reuse each
	// other's compiled plans for the same path at the same GPU capacity.
	// Nil gives the engine a private cache.
	Plans *PlanCache
}

// FaultLatencyNS is charged per execution block when a sample falls back to
// on-demand fetching (the tensor-fault handler round trip).
const FaultLatencyNS int64 = 25_000

// The recovery ladder's retry budget: a faulted operation is re-issued at
// most RetryMaxAttempts times in total, waiting RetryBackoffNS of simulated
// time before the first retry and doubling each subsequent one. After the
// budget is exhausted the ladder degrades instead of failing: transfers fall
// back to a fault-blind blocking copy, allocations to evict-and-retry —
// ErrCapacityExceeded surfaces only when eviction cannot free enough space.
const (
	RetryMaxAttempts       = 4
	RetryBackoffNS   int64 = 2_000
)

// DefaultConfig returns the runtime defaults for a platform.
func DefaultConfig(p gpusim.Platform) Config {
	return Config{
		Platform:             p,
		HandleMispredictions: true,
	}
}

// Engine simulates DyNN training under DyNN-Offload. The cost model and the
// trained pilot are read-only at run time, and the caches are safe for
// concurrent use, so one Engine may execute many samples concurrently
// (RunSample from several goroutines, or ParallelRunEpoch).
type Engine struct {
	Cfg   Config
	CM    gpusim.CostModel
	Pilot *pilot.Pilot

	// mis-prediction cache: cache key -> corrected path key.
	cache *mispredictCache[string]
	// sample memo (Config.MemoizeSamples): sample ID -> resolved path key of
	// a previously executed mis-predicted request.
	memo *mispredictCache[int]
	// resolved is the resolution memo (Config.MemoizeSamples); nil when off.
	resolved *ResolutionMemo
	// plans is the resolved-plan cache (plan.go): Config.Plans, or a private
	// cache when that is nil.
	plans *PlanCache
}

// NewEngine builds a runtime around a trained pilot.
func NewEngine(cfg Config, p *pilot.Pilot) *Engine {
	e := &Engine{
		Cfg: cfg, CM: gpusim.NewCostModel(cfg.Platform), Pilot: p,
		cache: newMispredictCache[string](), memo: newMispredictCache[int](),
		plans: cfg.Plans,
	}
	if e.plans == nil {
		e.plans = NewPlanCache()
	}
	if cfg.MemoizeSamples {
		e.resolved = cfg.Resolutions
		if e.resolved == nil {
			e.resolved = NewResolutionMemo()
		}
	}
	return e
}

// SampleResult reports one simulated training iteration of one sample.
// Breakdown is simulated time; PilotNS and MappingNS are the host wall time
// of the sample's pilot inference and output mapping.
type SampleResult struct {
	Breakdown    gpusim.Breakdown
	Mispredicted bool
	CacheHit     bool
	PilotNS      int64
	MappingNS    int64
	// FaultCounters tallies injected faults and recovery work for this
	// sample (zero when injection is disabled).
	FaultCounters faults.Counters
}

// EpochReport aggregates sample results.
type EpochReport struct {
	Breakdown      gpusim.Breakdown
	Samples        int
	Mispredictions int
	CacheHits      int
	PilotNS        int64
	MappingNS      int64
	FaultCounters  faults.Counters
}

// Add folds one sample result into the report. All fields are commutative
// sums (Breakdown.Add takes a max only for the peak), so folding in any
// order yields the same report — what makes parallel aggregation exact.
func (rep *EpochReport) Add(r SampleResult) {
	rep.Breakdown = rep.Breakdown.Add(r.Breakdown)
	rep.Samples++
	if r.Mispredicted {
		rep.Mispredictions++
	}
	if r.CacheHit {
		rep.CacheHits++
	}
	rep.PilotNS += r.PilotNS
	rep.MappingNS += r.MappingNS
	rep.FaultCounters = rep.FaultCounters.Add(r.FaultCounters)
}

// decision is the cache-dependent part of one sample's execution: which path
// the runtime prefetches for, and whether that was a mis-prediction. It is
// computed serially in sample order so cache evolution — and therefore every
// epoch aggregate — is identical at any worker count.
type decision struct {
	truth        *pilot.PathInfo
	mispredicted bool
	cacheHit     bool
}

// decide consults and updates the mis-prediction cache for one resolved
// sample and validates capacity. It is the only stage of a sample's
// execution whose outcome depends on the samples before it.
func (e *Engine) decide(ex *pilot.Example, resolution *pilot.Resolution) (decision, error) {
	var d decision
	predKey := ""
	if resolution.Path != nil {
		predKey = resolution.Path.Key
	}
	// The §IV-E mis-prediction cache: when a pilot output does not match any
	// path's bookkeeping record exactly (the suspicious case) and an output
	// like it previously mis-predicted, reuse the recorded correct blocks.
	// Keying on the (matched path, inexact) pair is the noise-robust analog
	// of the paper's "if the two outputs are exactly the same".
	cacheKey := ""
	if e.Cfg.HandleMispredictions && !resolution.Exact && predKey != "" {
		cacheKey = predKey
		if corrected, ok := e.cache.Lookup(cacheKey); ok {
			predKey = corrected
			d.cacheHit = true
		}
	}
	// The sample memo (serving): a request seen before reuses its recorded
	// resolution, overriding the pilot even on an exact-but-wrong match.
	memoized := e.Cfg.MemoizeSamples && ex.Sample != nil
	if memoized {
		if resolved, ok := e.memo.Lookup(ex.Sample.ID); ok {
			predKey = resolved
			d.cacheHit = true
		}
	}

	d.truth = ex.Ctx.PathByKey(ex.TruthKey)
	if d.truth == nil {
		return d, fmt.Errorf("core: truth path %q: %w", ex.TruthKey, ErrUnknownPath)
	}
	if err := e.checkCapacity(d.truth); err != nil {
		return d, err
	}

	d.mispredicted = predKey != ex.TruthKey
	if d.mispredicted {
		if cacheKey != "" {
			// Record the corrected resolution for future identical outputs
			// and for the next offline pilot-training round.
			e.cache.Insert(cacheKey, ex.TruthKey)
		}
		if memoized {
			e.memo.Insert(ex.Sample.ID, ex.TruthKey)
		}
	}
	return d, nil
}

// faultStream derives the sample's fault stream. The scope is the sample ID,
// not its epoch position, so a sample draws the same fault schedule on every
// run at any worker count — the determinism the acceptance bar requires.
// Returns nil (no injection) when faults are disabled.
func (e *Engine) faultStream(ex *pilot.Example) *faults.Stream {
	if !e.Cfg.Faults.Enabled() {
		return nil
	}
	var scope uint64
	if ex.Sample != nil {
		scope = uint64(ex.Sample.ID)
	}
	return e.Cfg.Faults.Stream(scope)
}

// simulate executes the decided sample from its compiled plan:
// double-buffered prefetch on a correct prediction, on-demand fallback on a
// mis-prediction. Read-only on the engine; safe to run concurrently (each
// call gets its own fault stream and trace collector). The error is non-nil
// only when the degradation ladder is genuinely stuck (ErrCapacityExceeded)
// — never in fault-free runs.
func (e *Engine) simulate(d decision, fs *faults.Stream, st *obsv.SampleTrace) (gpusim.Breakdown, error) {
	plan := e.planFor(d.truth)
	if d.mispredicted || e.Cfg.ForceOnDemand {
		return e.simulateOnDemand(plan, fs, st), nil
	}
	return e.simulatePipelined(plan, fs, st)
}

// runStep is phase 3 of the sample pipeline (run): trace the sample's pilot
// instants and outcome, simulate the decided sample under its fault stream,
// and fold the recovery counters into its result. The pilot and mapping
// stopwatches stay in PilotNS/MappingNS: Breakdown holds simulated time
// only. st and rec may be nil; idx is the sample's index as the recorder
// reports it. Safe to run concurrently for distinct samples.
func (e *Engine) runStep(ex *pilot.Example, r *pilot.Resolution, d decision,
	st *obsv.SampleTrace, rec *obsv.Recorder, idx int) (SampleResult, error) {
	res := SampleResult{
		PilotNS:      r.InferNS,
		MappingNS:    r.MapNS,
		Mispredicted: d.mispredicted,
		CacheHit:     d.cacheHit,
	}
	simSW := obsv.StartTimer()
	fs := e.faultStream(ex)
	// Pilot inference and mapping run on the host in wall time, outside the
	// DES clocks — they trace as simulated-time instants (see SpanPilot).
	st.Instant(obsv.SpanPilot)
	st.Instant(obsv.SpanMapping)
	st.Outcome(res.Mispredicted, res.CacheHit)
	bd, err := e.simulate(d, fs, st)
	if err != nil {
		return res, err
	}
	res.Breakdown = bd
	res.FaultCounters = fs.Counters()
	if rec != nil {
		rec.ObservePhase(PhaseSimulate, simSW.ElapsedNS())
		rec.ObserveSample(idx, res.Mispredicted, res.CacheHit, res.Breakdown.TotalNS())
		if fs != nil {
			rec.ObserveFaults(faultStats(res.FaultCounters))
		}
	}
	return res, nil
}

// checkCapacity enforces the offloading feasibility bound: all tensors must
// fit in CPU+GPU memory, and the largest single-operator working set must fit
// in the work buffer.
func (e *Engine) checkCapacity(info *pilot.PathInfo) error {
	total := info.Analysis.TotalBytes()
	avail := e.Cfg.Platform.CPUMemBytes + e.Cfg.Platform.GPU.MemBytes
	if total > avail {
		return fmt.Errorf("core: model needs %d bytes, CPU+GPU have %d: %w", total, avail, ErrCapacityExceeded)
	}
	if maxOp := info.Analysis.MaxSingleOpBytes(); maxOp > e.workBufferBytes() {
		return fmt.Errorf("core: op working set %d exceeds work buffer %d: %w", maxOp, e.workBufferBytes(), ErrCapacityExceeded)
	}
	return nil
}

// workBufferBytes is half of GPU memory: the double-buffer split (§IV-E,
// "GPU memory is partitioned into two equal-sized buffers").
func (e *Engine) workBufferBytes() int64 { return e.Cfg.Platform.GPU.MemBytes / 2 }

// CacheStats reports the mis-prediction cache's hit/miss/insert counters and
// its entry count.
func (e *Engine) CacheStats() CacheStats { return e.cache.Stats() }
