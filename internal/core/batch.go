package core

import (
	"runtime"

	"dynnoffload/internal/pilot"
)

// RunBatch is the batched dispatch entry point for the serving layer: it
// executes a set of samples as one dispatch group through the same
// three-phase pipeline as ParallelRunEpoch (pilot resolution through
// resolveAll, a serial cache pass in input order, concurrent simulation) but
// returns the per-sample results in input order instead of folding them into
// an epoch aggregate — a scheduler needs each request's own breakdown to
// account latency per tenant.
//
// The determinism contract carries over: for a fixed engine state and input
// order, the results (and the mis-prediction cache evolution they imprint on
// the engine) are bit-identical at any worker count, fault-free or faulted.
// Unlike ParallelRunEpoch, an error on any sample fails the whole batch —
// a dispatch either completes or it doesn't; partial batches would make the
// serving clock ambiguous.
func (e *Engine) RunBatch(exs []*pilot.Example, opts EpochOptions) ([]SampleResult, error) {
	if e.Pilot == nil || !e.Pilot.Trained() {
		return nil, ErrPilotNotTrained
	}
	if len(exs) == 0 {
		return nil, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exs) {
		workers = len(exs)
	}

	// Phase 1: pilot resolution — memo hits serially, misses concurrently.
	resolutions, resolveErrs := e.resolveAll(exs, &opts, workers)
	for _, err := range resolveErrs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: serial cache pass in input order — the only order-dependent
	// stage, exactly as in ParallelRunEpoch.
	decisions := make([]decision, len(exs))
	for i, ex := range exs {
		d, err := e.decide(ex, &resolutions[i])
		if err != nil {
			return nil, err
		}
		decisions[i] = d
	}

	// Phase 3: concurrent simulation into a per-index result slice.
	results := make([]SampleResult, len(exs))
	simErrs := make([]error, len(exs))
	fanOut(len(exs), workers, func(i, w int) {
		idx := opts.TraceBase + i
		results[i], simErrs[i] = e.runStep(exs[i], &resolutions[i], decisions[i],
			opts.sampleTrace(idx, w), opts.Recorder, idx)
	})
	for _, err := range simErrs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
