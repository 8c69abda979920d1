package core

import (
	"fmt"
	"reflect"
	"testing"

	"dynnoffload/internal/faults"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/sentinel"
)

// oraclePipelined and oracleOnDemand are the pre-plan simulator, kept as the
// test oracle for the plan-driven DES in simulate.go: the same schedules,
// computed by walking the sentinel.Analysis per sample (liveness queries, a
// MemPool materialized even fault-free) instead of reading compiled tables.
// They share nothing with the plan path but xfer and the cost model, so a
// table or bookkeeping bug in the plan compiler or the plan-driven loops
// shows up as a divergence here even when every plan-vs-plan property
// agrees.

// oraclePipelined executes one iteration under the double-buffered prefetch
// schedule (§IV-E):
//
//   - block i's compute starts once its prefetch completed (the runtime
//     "waits for the completion of tensor migration and starts the
//     computation for the next execution block", §V);
//   - when the operator counter observes block i starting, the migration
//     engine first evicts block i-1's write-back set, then prefetches block
//     i+1 (evict-then-prefetch, serialized to avoid fragmentation);
//   - residency is materialized in a MemPool so the peak footprint and the
//     double-buffer invariant are measured, not assumed.
//
// With a fault stream attached, every transfer may stall or abort (recovered
// by xfer's retry ladder), every allocation may transiently fail (recovered
// by retry, then evict-and-retry), and a scheduled prefetch may be silently
// dropped — the block then fetches on demand at start, fully exposed, paying
// the tensor-fault handler round trip. Faults perturb timing and traffic
// only; the returned error is non-nil solely when eviction cannot free
// enough space (genuine capacity exhaustion).
func (e *Engine) oraclePipelined(an *sentinel.Analysis, blocks []sentinel.Block, fs *faults.Stream, st *obsv.SampleTrace) (gpusim.Breakdown, error) {
	var bd gpusim.Breakdown
	if len(blocks) == 0 {
		return bd, nil
	}

	// Fast path: the liveness peak fits on the GPU — no offloading needed;
	// tensors migrate in once (first iteration) and stay. No migrations means
	// nothing to inject against.
	if an.PeakResidentBytes() <= e.Cfg.Platform.GPU.MemBytes {
		bd.ComputeNS = an.TotalComputeNS()
		bd.PeakGPUBytes = an.PeakResidentBytes()
		if st != nil {
			var cursor int64
			for i := range blocks {
				c := an.ComputeNS(blocks[i])
				st.Span(obsv.SpanCompute, obsv.LaneCompute, i, cursor, c, 0)
				cursor += c
			}
		}
		return bd, nil
	}

	pool := gpusim.AcquireMemPool(e.Cfg.Platform.GPU.MemBytes)
	defer gpusim.ReleaseMemPool(pool)
	streams := gpusim.NewStreams(gpusim.WithFaultStream(fs))
	none := sentinel.Block{}

	// addAll makes ids resident, consulting the fault stream at each
	// allocation and climbing the ladder on failure: bounded retries with
	// exponential backoff, then a fault-blind attempt, then evict-and-retry,
	// and only when eviction cannot free enough space ErrCapacityExceeded.
	// Returns the migration clock advanced by backoff waits and eviction
	// transfers. Fault-free it reduces to the plain residency update with
	// unchanged timing.
	addAll := func(ids []int64, ready int64, block int) (int64, error) {
		for _, id := range ids {
			bytes := an.BytesOf(id)
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
			if fs == nil {
				// Pre-fault semantics: residency accounting only; a full
				// pool here indicates a partition bug (budget is validated
				// at partition time), not a runtime error.
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
	dropAll := func(ids []int64) {
		for _, id := range ids {
			pool.Remove(id)
		}
	}

	// Initial prefetch of block 0 — inherently synchronous (compute cannot
	// start without it), so only stalls/aborts apply, not prefetch-drop.
	fetch0 := an.FetchBytes(blocks[0], none)
	mig := e.xfer(streams, gpusim.LaneH2D, fs, 0, e.CM.BatchedXferTime(fetch0),
		st, obsv.SpanPrefetch, 0, fetch0)
	bd.H2DBytes += fetch0
	var err error
	if mig, err = addAll(oracleWorkingIDs(an, blocks[0]), mig, 0); err != nil {
		return bd, err
	}

	dropped := false // block i's prefetch was dropped; fetch on demand at start
	var droppedBytes int64
	computeEnd := int64(0)
	for i := range blocks {
		start := mig
		if computeEnd > start {
			start = computeEnd
		}
		if dropped {
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
			if start, err = addAll(oracleWorkingIDs(an, blocks[i]), start, i); err != nil {
				return bd, err
			}
		}
		if start > computeEnd {
			bd.ExposedXferNS += start - computeEnd
		}

		// Operator counter fires at block start: retire block i-1's buffer
		// (write back live outputs, drop dead tensors), then prefetch block
		// i+1 into the freed migration buffer.
		if i+1 < len(blocks) {
			migStart := max64(mig, start)
			if i > 0 {
				evict := an.EvictBytes(blocks[i-1], blocks[i+1].Start)
				migStart = e.xfer(streams, gpusim.LaneD2H, fs, migStart, e.CM.BatchedXferTime(evict),
					st, obsv.SpanEvict, i-1, evict)
				bd.D2HBytes += evict
				dropAll(oracleWorkingIDs(an, blocks[i-1]))
			}
			fetch := an.FetchBytes(blocks[i+1], blocks[i])
			if fs.PrefetchDrop() {
				// The prefetch is silently lost: no fetch charge now, the
				// block recovers on demand when it starts.
				dropped, droppedBytes = true, fetch
				mig = migStart
			} else {
				dropped = false
				mig = e.xfer(streams, gpusim.LaneH2D, fs, migStart, e.CM.BatchedXferTime(fetch),
					st, obsv.SpanPrefetch, i+1, fetch)
				bd.H2DBytes += fetch
				if mig, err = addAll(oracleWorkingIDs(an, blocks[i+1]), mig, i+1); err != nil {
					return bd, err
				}
			}
		}

		blockCompute := an.ComputeNS(blocks[i])
		st.Span(obsv.SpanCompute, obsv.LaneCompute, i, start, blockCompute, 0)
		bd.ComputeNS += blockCompute
		computeEnd = start + blockCompute
	}

	// Trailing write-back of the final block's live outputs (updated weights
	// and optimizer state streaming home).
	finalEvict := an.EvictBytes(blocks[len(blocks)-1], an.NumOps())
	_ = finalEvict // weights remain CPU-resident copies; charged next fetch
	if mig > computeEnd {
		bd.ExposedXferNS += mig - computeEnd
	}

	bd.OverlapXferNS = e.CM.BatchedXferTime(bd.H2DBytes+bd.D2HBytes) - bd.ExposedXferNS
	if bd.OverlapXferNS < 0 {
		bd.OverlapXferNS = 0
	}
	bd.PeakGPUBytes = pool.Peak()
	return bd, nil
}

// oracleOnDemand models a mis-predicted sample: the prefetched tensors are
// wrong, so every block's migration is exposed on the critical path and each
// block pays the tensor-fault handler latency (§IV-E "fetching tensors on
// demand"). Injected faults stretch the exposed transfers (stall) or force
// re-issues with backoff (abort); the path is already fully on-demand, so
// prefetch-drop and allocation faults have nothing further to degrade.
func (e *Engine) oracleOnDemand(an *sentinel.Analysis, blocks []sentinel.Block, fs *faults.Stream, st *obsv.SampleTrace) gpusim.Breakdown {
	var bd gpusim.Breakdown
	if an.PeakResidentBytes() <= e.Cfg.Platform.GPU.MemBytes {
		// Fits on GPU: the wrong prediction costs only the fault round trip.
		bd.ComputeNS = an.TotalComputeNS()
		bd.FaultNS = FaultLatencyNS
		bd.Faults = 1
		bd.PeakGPUBytes = an.PeakResidentBytes()
		if st != nil {
			cursor := FaultLatencyNS
			st.Span(obsv.SpanFault, obsv.LaneHost, 0, 0, cursor, 0)
			for i := range blocks {
				c := an.ComputeNS(blocks[i])
				st.Span(obsv.SpanCompute, obsv.LaneCompute, i, cursor, c, 0)
				cursor += c
			}
		}
		return bd
	}
	// The on-demand path is fully serial — every transfer is exposed on the
	// critical path — so spans lie on one advancing cursor rather than on
	// per-lane clocks.
	var cursor int64
	// xferNS is the exposed wall time of one on-demand transfer under the
	// retry ladder: a stall multiplies the duration, an abort wastes half
	// the duration plus a doubling backoff per re-issue, and the final rung
	// is the fault-blind blocking copy. Fault-free it returns dur unchanged.
	// Aborted attempts trace as retry spans, the completing issue as kind.
	xferNS := func(kind obsv.SpanKind, lane string, block int, bytes int64) int64 {
		dur := e.CM.BatchedXferTime(bytes)
		var total int64
		backoff := RetryBackoffNS
		for attempt := 0; ; attempt++ {
			f := fs.Transfer()
			if !f.Abort {
				d := dur * f.StallFactor
				st.Span(kind, lane, block, cursor+total, d, bytes)
				return total + d
			}
			st.Retry(lane, block, cursor+total, dur/2, bytes, attempt+1)
			total += dur / 2 // wasted mid-flight time
			if attempt+1 >= RetryMaxAttempts {
				fs.NoteSyncFallback()
				st.Span(kind, lane, block, cursor+total, dur, bytes)
				return total + dur
			}
			fs.NoteRetry(backoff)
			total += backoff
			backoff *= 2
		}
	}
	none := sentinel.Block{}
	prev := none
	var peak int64
	for i, b := range blocks {
		fetch := an.FetchBytes(b, prev)
		bd.H2DBytes += fetch
		d := xferNS(obsv.SpanOnDemand, obsv.LaneH2D, i, fetch)
		bd.ExposedXferNS += d
		cursor += d
		if i > 0 {
			evict := an.EvictBytes(blocks[i-1], b.Start)
			bd.D2HBytes += evict
			d = xferNS(obsv.SpanEvict, obsv.LaneD2H, i-1, evict)
			bd.ExposedXferNS += d
			cursor += d
		}
		bd.FaultNS += FaultLatencyNS
		bd.Faults++
		st.Span(obsv.SpanFault, obsv.LaneHost, i, cursor, FaultLatencyNS, 0)
		cursor += FaultLatencyNS
		blockCompute := an.ComputeNS(b)
		st.Span(obsv.SpanCompute, obsv.LaneCompute, i, cursor, blockCompute, 0)
		cursor += blockCompute
		bd.ComputeNS += blockCompute
		if w := an.WorkingBytes(b); w > peak {
			peak = w
		}
		prev = b
	}
	bd.PeakGPUBytes = min64(2*peak, e.Cfg.Platform.GPU.MemBytes)
	return bd
}

// oracleRun is one simulated sample: breakdown, error, fault counters, and
// the canonical span set.
type oracleRun struct {
	bd       gpusim.Breakdown
	err      error
	counters faults.Counters
	spans    []obsv.Span
}

// runTraced simulates one sample under a fresh trace and a fresh fault
// stream for scope (nil when fc injects nothing).
func runTraced(fc faults.Config, scope uint64, sim func(*faults.Stream, *obsv.SampleTrace) (gpusim.Breakdown, error)) oracleRun {
	var fs *faults.Stream
	if fc.Rate > 0 {
		fs = faults.New(fc).Stream(scope)
	}
	tracer := obsv.NewTracer()
	var r oracleRun
	r.bd, r.err = sim(fs, tracer.Sample(0))
	r.counters = fs.Counters()
	r.spans = tracer.Spans()
	return r
}

// TestPlanSimulatorMatchesOracle pins the plan-driven DES to the analysis
// walker on every path of every property model: pipelined and on-demand,
// fault-free and faulted, comparing breakdowns, errors, fault counters, and
// the full simulated-time span sets.
func TestPlanSimulatorMatchesOracle(t *testing.T) {
	for _, b := range propModels(t) {
		eng := NewEngine(DefaultConfig(b.plat), b.p)
		ctx := b.test[0].Ctx
		for _, fc := range []faults.Config{{}, {Seed: 11, Rate: 0.2}} {
			var migrated int64
			var injected int64
			for k, info := range ctx.Paths {
				plan := eng.planFor(info)
				scope := uint64(k)
				for _, mode := range []struct {
					name         string
					plan, oracle func(*faults.Stream, *obsv.SampleTrace) (gpusim.Breakdown, error)
				}{
					{"pipelined",
						func(fs *faults.Stream, st *obsv.SampleTrace) (gpusim.Breakdown, error) {
							return eng.simulatePipelined(plan, fs, st)
						},
						func(fs *faults.Stream, st *obsv.SampleTrace) (gpusim.Breakdown, error) {
							return eng.oraclePipelined(info.Analysis, info.Blocks, fs, st)
						}},
					{"on-demand",
						func(fs *faults.Stream, st *obsv.SampleTrace) (gpusim.Breakdown, error) {
							return eng.simulateOnDemand(plan, fs, st), nil
						},
						func(fs *faults.Stream, st *obsv.SampleTrace) (gpusim.Breakdown, error) {
							return eng.oracleOnDemand(info.Analysis, info.Blocks, fs, st), nil
						}},
				} {
					got := runTraced(fc, scope, mode.plan)
					want := runTraced(fc, scope, mode.oracle)
					where := fmt.Sprintf("%s %s %s %+v", b.name, info.Key, mode.name, fc)
					if got.bd != want.bd {
						t.Fatalf("%s: breakdown diverges from the oracle:\n got %+v\nwant %+v", where, got.bd, want.bd)
					}
					if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
						t.Fatalf("%s: error %v, oracle %v", where, got.err, want.err)
					}
					if got.counters != want.counters {
						t.Fatalf("%s: fault counters %+v, oracle %+v", where, got.counters, want.counters)
					}
					if !reflect.DeepEqual(got.spans, want.spans) {
						t.Fatalf("%s: span set diverges from the oracle (%d vs %d spans)", where, len(got.spans), len(want.spans))
					}
					migrated += got.bd.H2DBytes
					injected += got.counters.Injected()
				}
			}
			if migrated == 0 {
				t.Fatalf("%s: no path migrates — the comparison would be vacuous", b.name)
			}
			if fc.Rate > 0 && injected == 0 {
				t.Fatalf("%s: %+v injected no faults — the faulted comparison would be vacuous", b.name, fc)
			}
		}
	}
}

// oracleWorkingIDs lists the distinct tensors a block's records reference
// (each record's inputs, then its outputs), in first-reference order: the
// order the plan's WorkingIDs hold, read from the trace itself.
func oracleWorkingIDs(an *sentinel.Analysis, b sentinel.Block) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, r := range an.Trace.Records[b.Start:b.End] {
		for _, ids := range [2][]int64{r.Inputs, r.Outputs} {
			for _, id := range ids {
				if !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
			}
		}
	}
	return out
}
