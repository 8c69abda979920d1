package core

import (
	"fmt"

	"dynnoffload/internal/faults"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/sentinel"
)

// This file is the runtime's one discrete-event simulator. Its only input is
// a compiled ResolvedPlan (plan.go) — the DyCL-style static form of one
// dynamic path: per-block fetch/evict/working tables, the iteration
// aggregates, and the replayed residency peak. The schedule itself never
// walks a sentinel.Analysis, so a sample costs no liveness walks and no map
// allocations: fault-free runs skip residency materialization entirely (the
// peak was replayed once at plan build) and faulted runs acquire a pooled
// arena.
//
// The pre-plan walker over sentinel.Analysis survives only as the test
// oracle (simulate_oracle_test.go); the oracle test pins every byte count,
// clock update, trace span, and fault-stream consultation of the schedules
// below to it, fault-free and faulted.

// xfer issues one transfer on a lane and climbs the recovery ladder on
// injected faults: bounded re-issues with exponential backoff on the DES
// clock, then a final fault-blind blocking copy that always completes.
// Returns the completion time; fault-free it is exactly Streams.RunSpan's
// end, so the no-injection arithmetic is bit-identical to the pre-fault
// engine.
//
// When st is non-nil the transfer is traced: each aborted attempt becomes a
// retry span covering its wasted lane occupancy, and the completing issue a
// span of the given kind. Tracing is read-only on the DES clocks.
func (e *Engine) xfer(s *gpusim.Streams, lane gpusim.Lane, fs *faults.Stream, ready, dur int64,
	st *obsv.SampleTrace, kind obsv.SpanKind, block int, bytes int64) int64 {
	start, end, err := s.TrySpan(lane, ready, dur)
	backoff := RetryBackoffNS
	attempt := 1
	for ; err != nil && attempt < RetryMaxAttempts; attempt++ {
		st.Retry(lane.String(), block, start, end-start, bytes, attempt)
		fs.NoteRetry(backoff)
		start, end, err = s.TrySpan(lane, end+backoff, dur)
		backoff *= 2
	}
	if err != nil {
		// Retry budget exhausted: degrade to the blocking synchronous copy,
		// which never consults the injector and therefore always completes —
		// the property that keeps rate-1.0 runs terminating.
		st.Retry(lane.String(), block, start, end-start, bytes, attempt)
		fs.NoteSyncFallback()
		start, end = s.RunSpan(lane, end, dur)
	}
	st.Span(kind, lane.String(), block, start, end-start, bytes)
	return end
}

// simulatePipelined executes one iteration under the double-buffered prefetch
// schedule (§IV-E):
//
//   - block i's compute starts once its prefetch completed (the runtime
//     "waits for the completion of tensor migration and starts the
//     computation for the next execution block", §V);
//   - when the operator counter observes block i starting, the migration
//     engine first evicts block i-1's write-back set, then prefetches block
//     i+1 (evict-then-prefetch, serialized to avoid fragmentation);
//   - under injection, residency is materialized in a MemPool so
//     evict-and-retry mutates real state; fault-free, the plan's replayed
//     peak stands in for it.
//
// With a fault stream attached, every transfer may stall or abort (recovered
// by xfer's retry ladder), every allocation may transiently fail (recovered
// by retry, then evict-and-retry), and a scheduled prefetch may be silently
// dropped — the block then fetches on demand at start, fully exposed, paying
// the tensor-fault handler round trip. Faults perturb timing and traffic
// only; the returned error is non-nil solely when eviction cannot free
// enough space (genuine capacity exhaustion).
func (e *Engine) simulatePipelined(rp *ResolvedPlan, fs *faults.Stream, st *obsv.SampleTrace) (gpusim.Breakdown, error) {
	plan := rp.Plan
	var bd gpusim.Breakdown
	n := plan.NumBlocks()
	if n == 0 {
		return bd, nil
	}

	// Fast path: the liveness peak fits on the GPU — no offloading needed;
	// tensors migrate in once (first iteration) and stay. No migrations means
	// nothing to inject against.
	if plan.PeakResidentBytes <= e.Cfg.Platform.GPU.MemBytes {
		bd.ComputeNS = plan.TotalComputeNS
		bd.PeakGPUBytes = plan.PeakResidentBytes
		traceResident(st, plan, 0)
		return bd, nil
	}

	// Fault-free samples need no residency materialization — the peak was
	// replayed at plan build — so the pool exists only under injection,
	// where evict-and-retry genuinely mutates residency. The Streams zero
	// value is the valid fault-free stream set, so it lives on the stack.
	var laneClocks gpusim.Streams
	streams := &laneClocks
	var pool *gpusim.MemPool
	if fs != nil {
		streams = gpusim.NewStreams(gpusim.WithFaultStream(fs))
		pool = gpusim.AcquireMemPool(e.Cfg.Platform.GPU.MemBytes)
		defer gpusim.ReleaseMemPool(pool)
	}

	// addAll makes block's working set resident, consulting the fault stream
	// at each allocation and climbing the ladder on failure: bounded retries
	// with exponential backoff, then a fault-blind attempt, then
	// evict-and-retry, and only when eviction cannot free enough space
	// ErrCapacityExceeded. Returns the migration clock advanced by backoff
	// waits and eviction transfers. Only called under injection: fault-free,
	// residency is the plan's replayed peak and the clocks are unchanged.
	addAll := func(block int, ready int64) (int64, error) {
		ids := plan.WorkingIDs[block]
		sizes := plan.WorkingIDBytes[block]
		for j, id := range ids {
			bytes := sizes[j]
			if fs.Alloc() {
				// Transient allocator pressure: wait it out on the DES clock.
				backoff := RetryBackoffNS
				for attempt := 1; attempt < RetryMaxAttempts; attempt++ {
					st.Retry(obsv.LaneHost, block, ready, backoff, 0, attempt)
					fs.NoteRetry(backoff)
					ready += backoff
					backoff *= 2
					if !fs.Alloc() {
						break
					}
				}
				// Whether or not the pressure cleared within the budget, the
				// attempt below is fault-blind: an injected transient failure
				// never blocks progress, only real capacity can.
			}
			err := pool.Add(id, bytes)
			if err == nil {
				continue
			}
			// Evict-and-retry: write back LRU residents until the tensor
			// fits, charging the D2H traffic on the migration clock.
			need := bytes - pool.Free()
			var evicted int64
			for _, v := range pool.Victims(need) {
				evicted += pool.Remove(v)
			}
			if evicted > 0 {
				bd.D2HBytes += evicted
				ready = e.xfer(streams, gpusim.LaneD2H, fs, ready, e.CM.BatchedXferTime(evicted),
					st, obsv.SpanEvict, block, evicted)
			}
			fs.NoteEvictRetry()
			if err := pool.Add(id, bytes); err != nil {
				return ready, fmt.Errorf("core: tensor %d (%d bytes) after evicting %d: %w",
					id, bytes, evicted, ErrCapacityExceeded)
			}
		}
		return ready, nil
	}
	dropAll := func(block int) {
		for _, id := range plan.WorkingIDs[block] {
			pool.Remove(id)
		}
	}

	// Initial prefetch of block 0 — inherently synchronous (compute cannot
	// start without it), so only stalls/aborts apply, not prefetch-drop.
	fetch0 := plan.FetchBytes[0]
	mig := e.xfer(streams, gpusim.LaneH2D, fs, 0, e.CM.BatchedXferTime(fetch0),
		st, obsv.SpanPrefetch, 0, fetch0)
	bd.H2DBytes += fetch0
	var err error
	if fs != nil {
		if mig, err = addAll(0, mig); err != nil {
			return bd, err
		}
	}

	dropped := false // block i's prefetch was dropped; fetch on demand at start
	var droppedBytes int64
	computeEnd := int64(0)
	for i := 0; i < n; i++ {
		start := mig
		if computeEnd > start {
			start = computeEnd
		}
		if dropped { // reachable only under injection
			// Degradation ladder, prefetch-drop rung: the predicted block's
			// tensors are not resident at block start. Fetch on demand —
			// fully exposed on the critical path — and pay the tensor-fault
			// handler round trip, exactly like a mis-predicted sample would.
			start = e.xfer(streams, gpusim.LaneH2D, fs, start, e.CM.BatchedXferTime(droppedBytes),
				st, obsv.SpanOnDemand, i, droppedBytes)
			bd.H2DBytes += droppedBytes
			bd.FaultNS += FaultLatencyNS
			bd.Faults++
			st.Span(obsv.SpanFault, obsv.LaneHost, i, start, FaultLatencyNS, 0)
			fs.NoteOnDemandFallback()
			if start, err = addAll(i, start); err != nil {
				return bd, err
			}
		}
		if start > computeEnd {
			bd.ExposedXferNS += start - computeEnd
		}

		// Operator counter fires at block start: retire block i-1's buffer
		// (write back live outputs, drop dead tensors), then prefetch block
		// i+1 into the freed migration buffer.
		if i+1 < n {
			migStart := max64(mig, start)
			if i > 0 {
				evict := plan.PipeEvictBytes[i]
				migStart = e.xfer(streams, gpusim.LaneD2H, fs, migStart, e.CM.BatchedXferTime(evict),
					st, obsv.SpanEvict, i-1, evict)
				bd.D2HBytes += evict
				if fs != nil {
					dropAll(i - 1)
				}
			}
			fetch := plan.FetchBytes[i+1]
			if fs != nil && fs.PrefetchDrop() {
				// The prefetch is silently lost: no fetch charge now, the
				// block recovers on demand when it starts.
				dropped, droppedBytes = true, fetch
				mig = migStart
			} else {
				dropped = false
				mig = e.xfer(streams, gpusim.LaneH2D, fs, migStart, e.CM.BatchedXferTime(fetch),
					st, obsv.SpanPrefetch, i+1, fetch)
				bd.H2DBytes += fetch
				if fs != nil {
					if mig, err = addAll(i+1, mig); err != nil {
						return bd, err
					}
				}
			}
		}

		blockCompute := plan.ComputeNS[i]
		st.Span(obsv.SpanCompute, obsv.LaneCompute, i, start, blockCompute, 0)
		bd.ComputeNS += blockCompute
		computeEnd = start + blockCompute
	}

	// The final block's live outputs (updated weights and optimizer state)
	// stay CPU-resident copies, charged on the next iteration's fetch. No
	// migration is in flight past the last compute: mig is last advanced
	// before block n-1 starts, and every start is at least mig.
	bd.OverlapXferNS = e.CM.BatchedXferTime(bd.H2DBytes+bd.D2HBytes) - bd.ExposedXferNS
	if bd.OverlapXferNS < 0 {
		bd.OverlapXferNS = 0
	}
	if pool != nil {
		bd.PeakGPUBytes = pool.Peak()
	} else {
		bd.PeakGPUBytes = rp.PipelinedPeakBytes
	}
	return bd, nil
}

// simulateOnDemand models a mis-predicted sample: the prefetched tensors are
// wrong, so every block's migration is exposed on the critical path and each
// block pays the tensor-fault handler latency (§IV-E "fetching tensors on
// demand"). Injected faults stretch the exposed transfers (stall) or force
// re-issues with backoff (abort); the path is already fully on-demand, so
// prefetch-drop and allocation faults have nothing further to degrade.
func (e *Engine) simulateOnDemand(rp *ResolvedPlan, fs *faults.Stream, st *obsv.SampleTrace) gpusim.Breakdown {
	plan := rp.Plan
	var bd gpusim.Breakdown
	n := plan.NumBlocks()
	if plan.PeakResidentBytes <= e.Cfg.Platform.GPU.MemBytes {
		// Fits on GPU: the wrong prediction costs only the fault round trip.
		bd.ComputeNS = plan.TotalComputeNS
		bd.FaultNS = FaultLatencyNS
		bd.Faults = 1
		bd.PeakGPUBytes = plan.PeakResidentBytes
		st.Span(obsv.SpanFault, obsv.LaneHost, 0, 0, FaultLatencyNS, 0)
		traceResident(st, plan, FaultLatencyNS)
		return bd
	}
	// The on-demand path is fully serial — every transfer is exposed on the
	// critical path — so spans lie on one advancing cursor. Each transfer is
	// issued ready at the cursor, and no lane clock ever leads it, so xfer's
	// recovery ladder runs on per-sample lane clocks unchanged: the cursor
	// moves to each transfer's completion.
	var laneClocks gpusim.Streams
	streams := &laneClocks
	if fs != nil {
		streams = gpusim.NewStreams(gpusim.WithFaultStream(fs))
	}
	var cursor, peak int64
	for i := 0; i < n; i++ {
		fetch := plan.FetchBytes[i]
		bd.H2DBytes += fetch
		end := e.xfer(streams, gpusim.LaneH2D, fs, cursor, e.CM.BatchedXferTime(fetch),
			st, obsv.SpanOnDemand, i, fetch)
		bd.ExposedXferNS += end - cursor
		cursor = end
		if i > 0 {
			evict := plan.OnDemandEvictBytes[i]
			bd.D2HBytes += evict
			end = e.xfer(streams, gpusim.LaneD2H, fs, cursor, e.CM.BatchedXferTime(evict),
				st, obsv.SpanEvict, i-1, evict)
			bd.ExposedXferNS += end - cursor
			cursor = end
		}
		bd.FaultNS += FaultLatencyNS
		bd.Faults++
		st.Span(obsv.SpanFault, obsv.LaneHost, i, cursor, FaultLatencyNS, 0)
		cursor += FaultLatencyNS
		blockCompute := plan.ComputeNS[i]
		st.Span(obsv.SpanCompute, obsv.LaneCompute, i, cursor, blockCompute, 0)
		cursor += blockCompute
		bd.ComputeNS += blockCompute
		if w := plan.WorkingBytes[i]; w > peak {
			peak = w
		}
	}
	bd.PeakGPUBytes = min64(2*peak, e.Cfg.Platform.GPU.MemBytes)
	return bd
}

// traceResident traces the fits-on-GPU schedule: every block's compute back
// to back from start, with no migrations. A no-op when st is nil.
func traceResident(st *obsv.SampleTrace, plan *sentinel.BlockPlan, start int64) {
	if st == nil {
		return
	}
	for i, c := range plan.ComputeNS {
		st.Span(obsv.SpanCompute, obsv.LaneCompute, i, start, c, 0)
		start += c
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// SimulatePartition exposes the pipelined double-buffer simulation for a
// given partition — used by the Fig 12 partition-quality study to execute
// the even-ops/even-time/even-bytes heuristics under identical runtime
// semantics. Always fault-free, so the error branch (capacity exhaustion
// during evict-and-retry, reachable only with injection) cannot fire.
// Repeated calls on one partition hit the engine's plan cache (keyed by
// analysis identity and partition digest), so sweeping iterations over a
// fixed partition costs one compilation, not one liveness walk per call.
func (e *Engine) SimulatePartition(an *sentinel.Analysis, blocks []sentinel.Block) gpusim.Breakdown {
	bd, _ := e.simulatePipelined(e.partitionPlan(an, blocks), nil, nil)
	return bd
}
