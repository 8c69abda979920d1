package core

import (
	"fmt"
	"runtime"
	"sync"

	"dynnoffload/internal/faults"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// EpochOptions configures a dispatch through the sample pipeline
// (ParallelRunEpoch, RunBatch).
type EpochOptions struct {
	// Workers is the goroutine-pool size; <= 0 means GOMAXPROCS. Results
	// are identical at any size; 1 runs every stage on the caller's
	// goroutine.
	Workers int
	// Recorder, when non-nil, receives per-phase timings ("pilot",
	// "mapping", "simulate") and per-sample outcomes.
	Recorder *obsv.Recorder
	// Tracer, when non-nil, collects per-sample span traces on the simulated
	// clock. The resulting span set is bit-identical at any worker count.
	Tracer *obsv.Tracer
	// TraceBase offsets the tracer and recorder sample indices: sample i
	// registers as TraceBase+i. The serving layer uses it to give every
	// request of a run a distinct trace slot across many RunBatch
	// dispatches; epochs leave it 0.
	TraceBase int
	// ClockBaseNS places the dispatch on an external shared virtual clock:
	// every simulated span is recorded at ClockBaseNS + its in-sample offset.
	// The cluster runtime uses it to lay per-GPU work on one timeline; pair
	// it with a tracer built with obsv.WithAbsoluteTime. 0 keeps the classic
	// per-sample-relative layout.
	ClockBaseNS int64
	// Pilots, when non-nil, overrides the engine pilot per sample: sample i
	// resolves through Pilots[i] when that entry is non-nil, falling back to
	// the engine pilot otherwise. The serving layer uses it to route each
	// request through its tenant's adapted pilot while the mis-prediction
	// cache and cost model stay shared. Must be nil or len(samples).
	Pilots []*pilot.Pilot
}

// sampleTrace registers trace slot idx placed on the dispatch's clock base;
// nil when untraced.
func (opts *EpochOptions) sampleTrace(idx int) *obsv.SampleTrace {
	st := opts.Tracer.Sample(idx)
	st.SetBase(opts.ClockBaseNS)
	return st
}

// pilotFor picks the resolving pilot for sample i under opts.
func (e *Engine) pilotFor(opts *EpochOptions, i int) *pilot.Pilot {
	if i < len(opts.Pilots) && opts.Pilots[i] != nil {
		return opts.Pilots[i]
	}
	return e.Pilot
}

// Observability phase names recorded by the sample pipeline.
const (
	PhasePilot    = "pilot"
	PhaseMapping  = "mapping"
	PhaseSimulate = "simulate"
)

// run is the sample pipeline every entry point (RunSample, RunEpoch,
// ParallelRunEpoch, RunBatch) goes through. A sample's execution has exactly
// one order-dependent stage: the mis-prediction cache consult/update, whose
// outcome depends on which earlier samples already mis-predicted. So the
// samples run in three phases:
//
//  1. pilot resolution (inference + output→path mapping) fans out across
//     workers — read-only on the pilot and cost model — for every sample
//     the resolution memo cannot answer (resolveAll);
//  2. a serial pass decides the samples in input order (decide): cache
//     lookups and inserts, the sample memo, and the capacity check;
//  3. simulation fans out across workers again (runStep), each sample
//     under its own fault stream scoped by sample ID, and hands each result
//     to emit(i, result) from the worker that produced it.
//
// Phases 1 and 3 carry all the per-sample compute; phase 2 is O(1) map work
// per sample. For a fixed engine state and input order every result, and
// the cache evolution the samples imprint on the engine, is bit-identical at
// any worker count, fault-free or faulted.
//
// Errors: the first sample in input order whose resolution or decision fails
// stops the pass — the samples before it are decided, none is simulated, and
// emit is never called. A simulation error (capacity exhaustion on the
// degradation ladder's last rung, unreachable without injection) is known
// only after every sample was decided and simulated; the lowest-index one is
// returned, and emit may have seen the other samples. Callers discard what
// emit gathered when run fails.
func (e *Engine) run(exs []*pilot.Example, opts *EpochOptions, emit func(i int, r SampleResult)) error {
	if e.Pilot == nil || !e.Pilot.Trained() {
		return ErrPilotNotTrained
	}
	if len(exs) == 0 {
		return nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(exs))

	resolutions, errs := e.resolveAll(exs, opts, workers)
	decisions := make([]decision, len(exs))
	for i, ex := range exs {
		if err := errs[i]; err != nil {
			return fmt.Errorf("core: resolve: %w", err)
		}
		d, err := e.decide(ex, &resolutions[i])
		if err != nil {
			return err
		}
		decisions[i] = d
	}

	// Every resolution succeeded, so errs is free to collect the
	// per-index simulation errors.
	fanOut(len(exs), workers, func(i int) {
		idx := opts.TraceBase + i
		r, err := e.runStep(exs[i], &resolutions[i], decisions[i], opts.sampleTrace(idx), opts.Recorder, idx)
		if err != nil {
			errs[i] = err
			return
		}
		emit(i, r)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunSample simulates one training iteration: pilot inference, output→path
// mapping, mis-prediction check, and double-buffered (or on-demand) execution
// of the sample's ground-truth iteration. It is RunBatch of one sample. Safe
// for concurrent use; note that under concurrency the cache interleaving
// (and so individual CacheHit flags) depends on scheduling — use
// ParallelRunEpoch for deterministic epoch aggregates.
func (e *Engine) RunSample(ex *pilot.Example) (SampleResult, error) {
	results, err := e.RunBatch([]*pilot.Example{ex}, EpochOptions{Workers: 1})
	if err != nil {
		return SampleResult{}, err
	}
	return results[0], nil
}

// RunEpoch simulates one epoch (one iteration per example) on the caller's
// goroutine: ParallelRunEpoch with one worker, under the same error
// contract.
func (e *Engine) RunEpoch(examples []*pilot.Example) (EpochReport, error) {
	return e.ParallelRunEpoch(examples, EpochOptions{Workers: 1})
}

// ParallelRunEpoch simulates one epoch across a worker pool, folding each
// sample result into the report as its worker finishes it. Every
// EpochReport field is a commutative sum or max, so the report is identical
// at any worker count.
//
// Error contract (shared with RunEpoch): on any error the report is zero.
// The mis-prediction cache holds the decisions of every sample before the
// first one that failed to resolve or decide, or of every sample when a
// simulation failed (see run).
func (e *Engine) ParallelRunEpoch(examples []*pilot.Example, opts EpochOptions) (EpochReport, error) {
	var (
		mu  sync.Mutex
		rep EpochReport
	)
	err := e.run(examples, &opts, func(_ int, r SampleResult) {
		mu.Lock()
		rep.Add(r)
		mu.Unlock()
	})
	if err != nil {
		return EpochReport{}, err
	}
	return rep, nil
}

// RunBatch is the batched dispatch entry point for the serving layer: it
// executes a set of samples as one dispatch group through the same pipeline
// as ParallelRunEpoch but returns the per-sample results in input order
// instead of folding them into an epoch aggregate — a scheduler needs each
// request's own breakdown to account latency per tenant. An error on any
// sample fails the whole batch (nil results): a dispatch either completes or
// it doesn't; partial batches would make the serving clock ambiguous.
func (e *Engine) RunBatch(exs []*pilot.Example, opts EpochOptions) ([]SampleResult, error) {
	var results []SampleResult
	if len(exs) > 0 {
		results = make([]SampleResult, len(exs))
	}
	if err := e.run(exs, &opts, func(i int, r SampleResult) { results[i] = r }); err != nil {
		return nil, err
	}
	return results, nil
}

// faultStats mirrors injector counters into the obsv snapshot type (obsv
// stays dependency-free, so the conversion lives here).
func faultStats(c faults.Counters) obsv.FaultStats {
	return obsv.FaultStats{
		Injected:          c.Injected(),
		TransferStalls:    c.TransferStalls,
		TransferAborts:    c.TransferAborts,
		AllocFaults:       c.AllocFaults,
		PrefetchDrops:     c.PrefetchDrops,
		Retries:           c.Retries,
		BackoffNS:         c.BackoffNS,
		OnDemandFallbacks: c.OnDemandFallbacks,
		EvictRetries:      c.EvictRetries,
		SyncFallbacks:     c.SyncFallbacks,
	}
}

// fanOut runs fn(i) for i in [0, n) across a pool of workers; with one
// worker, on the caller's goroutine.
func fanOut(n, workers int, fn func(i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
