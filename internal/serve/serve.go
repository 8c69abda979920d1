// Package serve is the multi-tenant serving front-end over the offload
// engine: an online request stream on the simulated clock, per-tenant
// admission control by byte quotas summed over each forming batch, an
// SLO-aware (earliest-deadline-first) scheduler with a starvation guard,
// and continuous batching dispatched through core.RunBatch.
//
// Everything runs on simulated nanoseconds and seeded randomness, so the
// serving layer inherits the runtime's determinism contract: identical
// (seed, config) inputs replay bit-identical admission and scheduling
// decisions — and therefore bit-identical per-tenant latency aggregates —
// at any worker count, fault-free or faulted. There is one entry point and
// one event loop, RunCluster: a single device is a one-engine
// ClusterBackend. The loop is serial (its cost is bookkeeping); the
// per-batch sample work fans out through the engine's three-phase pipeline.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dynnoffload/internal/core"
	"dynnoffload/internal/mathx"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/online"
	"dynnoffload/internal/pilot"
)

// Defaults applied by RunCluster when the corresponding config field is
// zero.
const (
	// DefaultMaxBatch bounds how many requests fuse into one dispatch.
	DefaultMaxBatch = 8
	// DefaultMaxQueue bounds a tenant's admitted-but-unserved requests;
	// beyond it, new arrivals are shed (backpressure).
	DefaultMaxQueue = 64
)

// ErrNoTenants means the config offered no load to serve.
var ErrNoTenants = errors.New("serve: no tenants configured")

// TenantConfig describes one tenant's offered load and its service terms.
type TenantConfig struct {
	// Name identifies the tenant in quotas, recorders and reports; no two
	// tenants of one run may share it.
	Name string
	// Requests is how many requests the tenant offers in total.
	Requests int
	// RatePerSec is the tenant's mean arrival rate, positive and finite
	// (open-loop Poisson process: exponential inter-arrival times on the
	// simulated clock).
	RatePerSec float64
	// Seed drives the tenant's arrival process and request sampling.
	Seed uint64
	// QuotaBytes caps the GPU memory the tenant's requests reserve in one
	// batch; 0 or less leaves the tenant bounded only by device capacity.
	QuotaBytes int64
	// SLONS is the end-to-end latency objective; a completed request whose
	// latency exceeds it counts as a violation. 0 disables the deadline (the
	// tenant schedules behind every deadline-bearing request).
	SLONS int64
	// MaxQueue bounds the tenant's admitted-but-unserved queue; 0 means
	// DefaultMaxQueue.
	MaxQueue int
}

// Config configures one serving run.
type Config struct {
	Tenants []TenantConfig
	// MaxBatch bounds the continuous-batch size; 0 means DefaultMaxBatch.
	MaxBatch int
	// StarvationAgeNS is the queue age past which a request preempts EDF
	// order (served oldest-first instead), so zero-SLO or long-deadline
	// tenants cannot starve under sustained load. 0 derives 4x the largest
	// tenant SLO; negative disables the guard.
	StarvationAgeNS int64
	// Workers is the engine fan-out per dispatched batch; <= 0 means
	// GOMAXPROCS. Results are identical at any value.
	Workers int
	// Tracer, when non-nil, collects per-request span traces (queue wait on
	// the host lane, then the engine's compute/transfer spans) indexed by
	// dispatch order.
	Tracer *obsv.Tracer
	// Registry, when non-nil, exposes the run's recorders (one global, one
	// per tenant) on the live /metrics endpoint.
	Registry *obsv.Registry
	// Flight sizes the per-replica flight recorder (bounded ring of recent
	// lifecycle events, snapshotted on SLO breach, fault-ladder degradation,
	// or engine capacity exhaustion). The zero value disables it.
	Flight obsv.FlightConfig
	// Online closes the serve→pilot feedback loop: completed requests feed a
	// bounded replay memory and the pilot retrains in-loop on seeded
	// minibatches (per-tenant adapters optional). The zero value disables it,
	// reproducing the learning-free serving behavior byte-for-byte.
	Online online.Config
}

// request is one admitted unit of work.
type request struct {
	tenant     int // index into Config.Tenants
	seq        int // per-tenant arrival sequence
	id         int64
	arrivalNS  int64
	deadlineNS int64 // math.MaxInt64 when the tenant has no SLO
	ex         *pilot.Example
	needBytes  int64
	// Quota-wait tracking for SLO attribution: quotaSinceNS is the simulated
	// time of the first refused reservation of the current blocked stretch
	// (0 when not blocked); quotaNS accumulates the blocked time at dispatch.
	quotaSinceNS int64
	quotaNS      int64
	// retrainNS accumulates the online-learning retrain stalls this request
	// sat queued behind, credited to the pilot_retrain SLO component.
	retrainNS int64
}

// TenantReport is one tenant's serving summary.
type TenantReport struct {
	Name  string
	Stats obsv.ServeStats
}

// Report summarizes one serving run.
type Report struct {
	// Total aggregates every tenant; its latency quantiles are computed over
	// the combined completion set.
	Total   obsv.ServeStats
	Tenants []TenantReport
	// MeanBatchSize is completed requests per dispatch.
	MeanBatchSize float64
	// MakespanNS is the completion time of the last batch.
	MakespanNS int64
	// DeviceHighWater is the most memory one batch reserved on its replica
	// across the run.
	DeviceHighWater int64
	// Flights holds the flight-recorder snapshots, in replica order: any
	// triggered captures followed by each replica's unconditional end-of-run
	// snapshot. Empty when Config.Flight leaves recording disabled.
	Flights []obsv.FlightSnapshot
}

// Phase names observed on the serving recorders (simulated nanoseconds, not
// host time — unlike the engine's pilot/mapping/simulate phases).
const (
	PhaseQueue   = "queue"
	PhaseService = "service"
	PhaseE2E     = "e2e"
)

// selectBatch orders the queue — starving requests first (oldest-first),
// then earliest deadline — and greedily fills a batch from the front: same
// model context as the anchor, each tenant's bytes in the batch within its
// quota, and the batch's bytes within capBytes, the chosen replica's device
// memory. A replica holds nothing between its batches, so these sums are
// the whole reservation: no reservation outlives the call. held is
// per-tenant scratch that selectBatch clears and fills with each tenant's
// bytes in the batch. It returns the batch, the requests left queued for a
// later dispatch, and the batch's total bytes.
func selectBatch(queued []*request, now, starveAge int64, maxBatch int, capBytes int64, tenants []TenantConfig, held []int64) (batch, rest []*request, total int64) {
	q := queued
	sort.SliceStable(q, func(i, j int) bool {
		a, b := q[i], q[j]
		as, bs := now-a.arrivalNS > starveAge, now-b.arrivalNS > starveAge
		if as != bs {
			return as
		}
		if as { // both starving: oldest first
			if a.arrivalNS != b.arrivalNS {
				return a.arrivalNS < b.arrivalNS
			}
		} else if a.deadlineNS != b.deadlineNS {
			return a.deadlineNS < b.deadlineNS
		}
		if a.arrivalNS != b.arrivalNS {
			return a.arrivalNS < b.arrivalNS
		}
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		return a.seq < b.seq
	})

	clear(held)
	rest = queued[:0]
	for _, r := range q {
		if len(batch) < maxBatch && (len(batch) == 0 || r.ex.Ctx == batch[0].ex.Ctx) {
			quota := tenants[r.tenant].QuotaBytes
			if (quota <= 0 || held[r.tenant]+r.needBytes <= quota) && total+r.needBytes <= capBytes {
				held[r.tenant] += r.needBytes
				total += r.needBytes
				// Close out any quota-blocked stretch: the request waited on
				// its memory reservation from the first refusal until now.
				if r.quotaSinceNS > 0 {
					r.quotaNS += now - r.quotaSinceNS
					r.quotaSinceNS = 0
				}
				batch = append(batch, r)
				continue
			}
			// Refused for memory specifically (the batch had room and the
			// context matched): the quota wait starts now.
			if r.quotaSinceNS == 0 {
				r.quotaSinceNS = now
			}
		}
		rest = append(rest, r)
	}
	return batch, rest, total
}

// serviceTime models the continuous batch's occupancy of the device: the
// requests' independent simulated times, compressed by what depth-wise
// kernel fusion saves across the batch (SimulateDynamicBatch's sequential
// minus batched launch time), floored by the slowest member — fusing can
// never beat the longest critical path — and by 1ns.
func serviceTime(eng *core.Engine, batch []*request, results []core.SampleResult) int64 {
	var sum, slowest int64
	infos := make([]*pilot.PathInfo, 0, len(batch))
	for i, r := range batch {
		t := results[i].Breakdown.TotalNS()
		sum += t
		if t > slowest {
			slowest = t
		}
		if info := r.ex.Ctx.PathByKey(r.ex.TruthKey); info != nil {
			infos = append(infos, info)
		}
	}
	service := sum
	if len(infos) > 1 {
		rep := eng.SimulateDynamicBatch(infos)
		service -= rep.SequentialNS - rep.BatchedNS
	}
	if service < slowest {
		service = slowest
	}
	if service < 1 {
		service = 1
	}
	return service
}

// generate pre-computes every tenant's seeded arrival stream and merges them
// into one globally ordered sequence. Each tenant forks two independent RNG
// streams off its seed: one for exponential inter-arrival gaps, one for
// drawing requests from the pool.
func generate(cfg Config, pool []*pilot.Example, gpuMem int64) ([]*request, error) {
	need := make([]int64, len(pool))
	for i, ex := range pool {
		info := ex.Ctx.PathByKey(ex.TruthKey)
		if info == nil {
			return nil, fmt.Errorf("serve: pool example %d has no truth path", i)
		}
		need[i] = info.Analysis.PeakResidentBytes()
		// The engine migrates, so a request never needs more than half the
		// device resident at once to make progress.
		if half := gpuMem / 2; need[i] > half {
			need[i] = half
		}
	}

	var all []*request
	var id int64
	for t, tc := range cfg.Tenants {
		if tc.Requests <= 0 {
			continue
		}
		if !(tc.RatePerSec > 0) || math.IsInf(tc.RatePerSec, 1) {
			return nil, fmt.Errorf("serve: tenant %q needs a positive finite rate, got %v", tc.Name, tc.RatePerSec)
		}
		gaps := mathx.NewRNG(tc.Seed).Fork(1)
		picks := mathx.NewRNG(tc.Seed).Fork(2)
		var clock int64
		for seq := 0; seq < tc.Requests; seq++ {
			u := gaps.Float64()
			gapNS := int64(-math.Log(1-u) / tc.RatePerSec * 1e9)
			if gapNS < 1 {
				gapNS = 1
			}
			clock += gapNS
			pick := picks.Intn(len(pool))
			id++
			r := &request{
				tenant: t, seq: seq, id: id, arrivalNS: clock,
				deadlineNS: math.MaxInt64,
				ex:         pool[pick], needBytes: need[pick],
			}
			if tc.SLONS > 0 {
				r.deadlineNS = clock + tc.SLONS
			}
			all = append(all, r)
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.arrivalNS != b.arrivalNS {
			return a.arrivalNS < b.arrivalNS
		}
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		return a.seq < b.seq
	})
	return all, nil
}
