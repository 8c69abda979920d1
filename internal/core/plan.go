package core

import (
	"sync"
	"sync/atomic"

	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/pilot"
	"dynnoffload/internal/sentinel"
)

// This file is the resolved-plan cache — the DyCL-style generalization of
// Config.MemoizeSamples from exact sample identity to path identity. Every
// sample whose dynamic path resolves to the same pilot.PathInfo executes
// from one shared immutable ResolvedPlan: the per-block fetch/evict/working
// tables, the iteration aggregates, and the replayed residency peak. A plan
// is a pure function of the path, the model-context parameters, and the GPU
// capacity, so sharing one across samples, ParallelRunEpoch workers,
// engines, and sweep grid points cannot change any simulated result — it
// only removes the per-sample liveness walks and allocations from the hot
// path.

// ResolvedPlan is one immutable compiled execution plan: the block query
// table plus the context-dependent values the simulator needs per sample.
type ResolvedPlan struct {
	// Plan is the per-block query table (read-only, shared).
	Plan *sentinel.BlockPlan
	// PipelinedPeakBytes is the fault-free double-buffer residency peak at
	// CapacityBytes, obtained by replaying the pipelined residency schedule
	// once against a real MemPool at plan-build time. It is capacity-
	// dependent (a full pool silently rejects adds on the fault-free path),
	// which is why plans are keyed per GPU capacity.
	PipelinedPeakBytes int64
	// CapacityBytes is the GPU capacity the peak was replayed at.
	CapacityBytes int64
}

// buildResolvedPlan compiles a plan for one (analysis, partition) pair at a
// GPU capacity.
func buildResolvedPlan(an *sentinel.Analysis, blocks []sentinel.Block, capacity int64) *ResolvedPlan {
	bp := sentinel.NewBlockPlan(an, blocks)
	rp := &ResolvedPlan{Plan: bp, CapacityBytes: capacity}
	if bp.PeakResidentBytes > capacity {
		rp.PipelinedPeakBytes = replayPipelinedPeak(bp, capacity)
	}
	return rp
}

// replayPipelinedPeak reproduces simulatePipelined's fault-free residency
// schedule — add block 0's working set, then per block retire i-1 and admit
// i+1, with over-capacity adds silently skipped — and returns the pool peak.
func replayPipelinedPeak(bp *sentinel.BlockPlan, capacity int64) int64 {
	pool := gpusim.AcquireMemPool(capacity)
	add := func(i int) {
		ids := bp.WorkingIDs[i]
		sizes := bp.WorkingIDBytes[i]
		for j, id := range ids {
			_ = pool.Add(id, sizes[j]) // full pool: fault-free path ignores it
		}
	}
	drop := func(i int) {
		for _, id := range bp.WorkingIDs[i] {
			pool.Remove(id)
		}
	}
	n := bp.NumBlocks()
	add(0)
	for i := 0; i < n; i++ {
		if i+1 < n {
			if i > 0 {
				drop(i - 1)
			}
			add(i + 1)
		}
	}
	peak := pool.Peak()
	gpusim.ReleaseMemPool(pool)
	return peak
}

// planID is a plan's identity in the PlanCache. A path plan is keyed by
// its PathInfo and a custom partition (SimulatePartition) by its analysis
// and partition digest; both add the GPU capacity, because the fault-free
// residency peak is replayed per capacity. The keys are identities, not
// content hashes: a ModelContext enumerates each path once, so the PathInfo
// pointer already names the static sub-graph the plan compiles.
type planID struct {
	path     *pilot.PathInfo
	analysis *sentinel.Analysis
	blocks   uint64
	capacity int64
}

// PlanCache is the resolved-plan cache: one map snapshot behind an atomic
// pointer, so lookups are lock-free reads and inserts copy-on-write under a
// mutex. Every engine holds one — Config.Plans when shared, else a private
// cache — and one PlanCache may back any number of engines concurrently.
type PlanCache struct {
	mu sync.Mutex // serializes inserts; lookups never take it
	m  atomic.Pointer[map[planID]*ResolvedPlan]
	// Every lookup reads m and writes a counter. The pad keeps the counters
	// off m's cache line, so one core's count does not evict the map
	// pointer another core is about to read.
	_       [64]byte
	hits    atomic.Int64
	misses  atomic.Int64
	inserts atomic.Int64
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	c := &PlanCache{}
	c.m.Store(&map[planID]*ResolvedPlan{})
	return c
}

func (c *PlanCache) lookup(k planID) (*ResolvedPlan, bool) {
	p, ok := (*c.m.Load())[k]
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return p, ok
}

// Lookup returns the plan cached for a path at a GPU capacity, as an engine
// at that capacity would find it. The read is lock-free.
func (c *PlanCache) Lookup(info *pilot.PathInfo, capacityBytes int64) (*ResolvedPlan, bool) {
	return c.lookup(planID{path: info, capacity: capacityBytes})
}

// insert publishes a plan under k and returns the cache's plan for k — the
// existing entry if another goroutine published first (both built the same
// pure function of the key, so either is correct; keeping the first lets
// every caller converge on one shared pointer).
func (c *PlanCache) insert(k planID, plan *ResolvedPlan) *ResolvedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.m.Load()
	if existing, ok := old[k]; ok {
		return existing
	}
	next := make(map[planID]*ResolvedPlan, len(old)+1)
	for k2, v := range old {
		next[k2] = v
	}
	next[k] = plan
	c.m.Store(&next)
	c.inserts.Add(1)
	return plan
}

// PlanCacheStats reports cache behavior since construction.
type PlanCacheStats struct {
	Hits    int64
	Misses  int64
	Inserts int64
	Entries int
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Inserts: c.inserts.Load(),
		Entries: len(*c.m.Load()),
	}
}

// planFor resolves the plan for a path at the engine's GPU capacity,
// compiling and publishing it on a miss. Safe for concurrent use; concurrent
// misses build duplicate (identical) plans and converge on the first
// published.
func (e *Engine) planFor(info *pilot.PathInfo) *ResolvedPlan {
	capacity := e.Cfg.Platform.GPU.MemBytes
	if plan, ok := e.plans.Lookup(info, capacity); ok {
		return plan
	}
	return e.plans.insert(planID{path: info, capacity: capacity}, buildResolvedPlan(info.Analysis, info.Blocks, capacity))
}

// partitionPlan resolves the plan for a caller-supplied partition, keyed by
// analysis identity and partition digest.
func (e *Engine) partitionPlan(an *sentinel.Analysis, blocks []sentinel.Block) *ResolvedPlan {
	k := planID{analysis: an, blocks: sentinel.BlocksDigest(blocks), capacity: e.Cfg.Platform.GPU.MemBytes}
	if plan, ok := e.plans.lookup(k); ok {
		return plan
	}
	return e.plans.insert(k, buildResolvedPlan(an, blocks, k.capacity))
}
