package core

import (
	"runtime"
	"sync"

	"dynnoffload/internal/faults"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// EpochOptions configures ParallelRunEpoch.
type EpochOptions struct {
	// Workers is the goroutine-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Recorder, when non-nil, receives per-phase timings ("pilot",
	// "mapping", "simulate") and per-sample outcomes.
	Recorder *obsv.Recorder
	// Tracer, when non-nil, collects per-sample span traces on the simulated
	// clock. The resulting span set is bit-identical at any worker count
	// unless the tracer runs in wall mode.
	Tracer *obsv.Tracer
	// TraceBase offsets the tracer sample indices: sample i registers as
	// TraceBase+i. The serving layer uses it to give every request of a run a
	// distinct trace slot across many RunBatch dispatches; epochs leave it 0.
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

// sampleTrace registers trace slot idx for a sample simulated by worker w,
// placed on the dispatch's clock base; nil when untraced.
func (opts *EpochOptions) sampleTrace(idx, w int) *obsv.SampleTrace {
	st := opts.Tracer.Sample(idx)
	st.SetBase(opts.ClockBaseNS)
	st.SetWorker(w)
	return st
}

// pilotFor picks the resolving pilot for sample i under opts.
func (e *Engine) pilotFor(opts *EpochOptions, i int) *pilot.Pilot {
	if i < len(opts.Pilots) && opts.Pilots[i] != nil {
		return opts.Pilots[i]
	}
	return e.Pilot
}

// Observability phase names recorded by ParallelRunEpoch.
const (
	PhasePilot    = "pilot"
	PhaseMapping  = "mapping"
	PhaseSimulate = "simulate"
)

// ParallelRunEpoch simulates one epoch across a worker pool and produces an
// EpochReport identical to serial RunEpoch at any worker count.
//
// A sample's execution has exactly one order-dependent stage: the
// mis-prediction cache consult/update, whose outcome depends on which earlier
// samples already mis-predicted. So the epoch runs as a three-phase pipeline:
//
//  1. pilot resolution (inference + output→path mapping) fans out across
//     workers — read-only on the pilot and cost model — for every sample
//     the resolution memo cannot answer (resolveAll);
//  2. a serial cache pass walks samples in their seeded order, replicating
//     the exact cache evolution of RunEpoch (lookups, inserts, capacity
//     checks, and the first-error cutoff);
//  3. block simulation fans out across workers again, streaming
//     SampleResults through a channel into an order-independent aggregation
//     (every EpochReport field is a commutative sum or max).
//
// Phases 1 and 3 carry all the per-sample compute; phase 2 is O(1) map work
// per sample.
func (e *Engine) ParallelRunEpoch(examples []*pilot.Example, opts EpochOptions) (EpochReport, error) {
	var rep EpochReport
	if e.Pilot == nil || !e.Pilot.Trained() {
		return rep, ErrPilotNotTrained
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(examples) && len(examples) > 0 {
		workers = len(examples)
	}
	if len(examples) == 0 {
		return rep, nil
	}

	// Phase 1: pilot resolution (concurrent, after the memo prologue when
	// the resolution memo is on). Per-index errors are collected and the
	// lowest-index one wins below, matching serial order.
	resolutions, resolveErrs := e.resolveAll(examples, &opts, workers)

	// Phase 2: serial, deterministic cache pass in seeded sample order. On
	// error, samples before the failing one still count — matching serial
	// RunEpoch, which aggregates up to the first error.
	decisions := make([]decision, len(examples))
	n := len(examples)
	var firstErr error
	for i, ex := range examples {
		if err := resolveErrs[i]; err != nil {
			n, firstErr = i, err
			break
		}
		d, err := e.decide(ex, &resolutions[i])
		if err != nil {
			n, firstErr = i, err
			break
		}
		decisions[i] = d
	}

	// Phase 3: concurrent simulation, streamed through a channel so
	// aggregation never waits on stragglers in index order. Each sample
	// derives its own fault stream scoped by sample ID, so the injected
	// schedule — and therefore every fault/retry counter — is identical at
	// any worker count. Simulation errors (capacity exhaustion on the
	// ladder's last rung, unreachable without injection) are collected
	// per-index; the lowest one wins, matching serial order.
	results := make(chan SampleResult, workers)
	simErrs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fanOut(n, workers, func(i, w int) {
			res, err := e.runStep(examples[i], &resolutions[i], decisions[i],
				opts.sampleTrace(i, w), opts.Recorder, i)
			if err != nil {
				simErrs[i] = err
				return
			}
			results <- res
		})
		close(results)
	}()
	for res := range results {
		rep.Add(res)
	}
	wg.Wait()
	if firstErr == nil {
		for _, err := range simErrs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	return rep, firstErr
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

// fanOut runs fn(i, worker) for i in [0, n) across a pool of workers. The
// worker index is observability metadata only (trace tagging in wall mode);
// nothing deterministic may depend on it.
func fanOut(n, workers int, fn func(i, worker int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	idx := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				fn(i, w)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
