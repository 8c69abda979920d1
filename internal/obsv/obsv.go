// Package obsv provides run-scoped observability for the DyNN-Offload
// runtime: lock-free counters and nanosecond histograms that many worker
// goroutines update concurrently, snapshotted into a RunStats struct
// (samples/sec, mis-prediction rate, cache hit rate, per-phase latency), and
// an optional JSONL event sink for offline analysis. The package has no
// dependencies on the rest of the repo so every layer can import it.
package obsv

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// nBuckets covers 2^0..2^62 ns in power-of-two buckets — any duration fits.
const nBuckets = 64

// Histogram is a concurrency-safe power-of-two latency histogram over
// nanoseconds. Observations below 1ns land in bucket 0.
type Histogram struct {
	buckets [nBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))&(nBuckets-1)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// HistogramStats is an immutable snapshot of a Histogram.
//
// Every quantile field (P50NS..P999NS) is the *upper bound* of the
// power-of-two bucket holding that quantile — i.e. the smallest 2^i ≥ the
// true value (1 for sub-nanosecond observations) — so quantiles
// over-estimate by at most 2x and are always an exact power of two. A
// quantile that falls past the last occupied bucket reports MaxNS.
type HistogramStats struct {
	Count   int64   `json:"count"`
	SumNS   int64   `json:"sum_ns"`
	MeanNS  int64   `json:"mean_ns"`
	MaxNS   int64   `json:"max_ns"`
	P50NS   int64   `json:"p50_ns"` // bucket upper bound — ~2x resolution
	P90NS   int64   `json:"p90_ns"`
	P99NS   int64   `json:"p99_ns"`
	P999NS  int64   `json:"p999_ns"`
	Buckets []int64 `json:"buckets,omitempty"` // count per power-of-two bucket
}

// Snapshot captures the histogram. Quantiles are bucket upper bounds, so they
// over-estimate by at most 2x — enough to spot phase-latency regressions.
func (h *Histogram) Snapshot() HistogramStats {
	var s HistogramStats
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	s.MaxNS = h.max.Load()
	if s.Count > 0 {
		s.MeanNS = s.SumNS / s.Count
	}
	quantile := func(q float64) int64 {
		target := int64(float64(s.Count) * q)
		var c int64
		for i := 0; i < nBuckets; i++ {
			c += h.buckets[i].Load()
			if c > target {
				if i == 0 {
					return 1
				}
				return int64(1) << uint(i)
			}
		}
		return s.MaxNS
	}
	if s.Count > 0 {
		s.P50NS = quantile(0.50)
		s.P90NS = quantile(0.90)
		s.P99NS = quantile(0.99)
		s.P999NS = quantile(0.999)
	}
	for i := 0; i < nBuckets; i++ {
		if v := h.buckets[i].Load(); v != 0 {
			if s.Buckets == nil {
				s.Buckets = make([]int64, nBuckets)
			}
			s.Buckets[i] = v
		}
	}
	return s
}

// FaultStats mirrors the runtime's fault-injection and recovery counters
// (defined here rather than imported so obsv keeps zero dependencies on the
// rest of the repo). All fields are commutative sums.
type FaultStats struct {
	Injected          int64 `json:"injected"`
	TransferStalls    int64 `json:"transfer_stalls"`
	TransferAborts    int64 `json:"transfer_aborts"`
	AllocFaults       int64 `json:"alloc_faults"`
	PrefetchDrops     int64 `json:"prefetch_drops"`
	Retries           int64 `json:"retries"`
	BackoffNS         int64 `json:"backoff_ns"`
	OnDemandFallbacks int64 `json:"on_demand_fallbacks"`
	EvictRetries      int64 `json:"evict_retries"`
	SyncFallbacks     int64 `json:"sync_fallbacks"`
}

// Add returns the element-wise sum.
func (f FaultStats) Add(o FaultStats) FaultStats {
	f.Injected += o.Injected
	f.TransferStalls += o.TransferStalls
	f.TransferAborts += o.TransferAborts
	f.AllocFaults += o.AllocFaults
	f.PrefetchDrops += o.PrefetchDrops
	f.Retries += o.Retries
	f.BackoffNS += o.BackoffNS
	f.OnDemandFallbacks += o.OnDemandFallbacks
	f.EvictRetries += o.EvictRetries
	f.SyncFallbacks += o.SyncFallbacks
	return f
}

// RunStats is the aggregate view of one run (typically one epoch): throughput,
// prediction quality, cache behavior, and per-phase latency.
type RunStats struct {
	Label          string                    `json:"label,omitempty"`
	Workers        int                       `json:"workers,omitempty"`
	WallNS         int64                     `json:"wall_ns"`
	Samples        int64                     `json:"samples"`
	SamplesPerSec  float64                   `json:"samples_per_sec"`
	Mispredicts    int64                     `json:"mispredicts"`
	MispredictRate float64                   `json:"mispredict_rate"`
	CacheHits      int64                     `json:"cache_hits"`
	CacheHitRate   float64                   `json:"cache_hit_rate"` // hits / samples
	Faults         *FaultStats               `json:"faults,omitempty"`
	Overlap        *OverlapStats             `json:"overlap,omitempty"`
	Serve          *ServeStats               `json:"serve,omitempty"`
	Phases         map[string]HistogramStats `json:"phases,omitempty"`
	// SinkDropped counts events the sink failed to write (see JSONLSink);
	// SinkErr holds the first write error's text.
	SinkDropped int64  `json:"sink_dropped,omitempty"`
	SinkErr     string `json:"sink_err,omitempty"`
}

// Recorder accumulates counters and phase histograms for one run. All
// Observe* methods are safe for concurrent use; Finish/Snapshot may race with
// observers only in the trivial sense of missing in-flight updates.
type Recorder struct {
	label   string
	workers int
	start   time.Time

	samples     atomic.Int64
	mispredicts atomic.Int64
	cacheHits   atomic.Int64

	faultMu    sync.Mutex
	faults     FaultStats
	faultsSeen bool

	overlapMu sync.Mutex
	overlap   *OverlapStats

	serveMu sync.Mutex
	serve   *ServeStats

	phases sync.Map // string -> *Histogram

	sink Sink
}

// NewRecorder starts a recorder for a run. sink may be nil (counters only).
func NewRecorder(label string, workers int, sink Sink) *Recorder {
	r := &Recorder{label: label, workers: workers, start: time.Now(), sink: sink} //dynnlint:ignore determinism recorder wall time feeds reports only, never simulated state
	r.emit(Event{Type: EventRunStart, Label: label, Workers: workers})
	return r
}

// phase returns (creating if needed) the named phase histogram.
func (r *Recorder) phase(name string) *Histogram {
	if h, ok := r.phases.Load(name); ok {
		return h.(*Histogram)
	}
	h, _ := r.phases.LoadOrStore(name, &Histogram{})
	return h.(*Histogram)
}

// ObservePhase records one duration for a named phase ("pilot", "mapping",
// "simulate", ...).
func (r *Recorder) ObservePhase(name string, ns int64) {
	r.phase(name).Observe(ns)
}

// ObserveSample records one completed sample's outcome and emits a sample
// event when a sink is attached.
func (r *Recorder) ObserveSample(index int, mispredicted, cacheHit bool, totalNS int64) {
	r.samples.Add(1)
	if mispredicted {
		r.mispredicts.Add(1)
	}
	if cacheHit {
		r.cacheHits.Add(1)
	}
	if r.sink != nil {
		r.emit(Event{
			Type: EventSample, Sample: index, DurNS: totalNS,
			Mispredicted: mispredicted, CacheHit: cacheHit,
		})
	}
}

// ObserveFaults folds one sample's fault-injection and recovery counters
// into the run totals. Safe for concurrent use; once called, Snapshot
// reports a Faults block even if every counter is zero (injection was on but
// nothing fired).
func (r *Recorder) ObserveFaults(f FaultStats) {
	r.faultMu.Lock()
	r.faults = r.faults.Add(f)
	r.faultsSeen = true
	r.faultMu.Unlock()
}

// SetOverlap attaches the run's derived overlap/utilization summary
// (computed from a Tracer's span set after the epoch) so it rides along in
// RunStats and the Prometheus exposition.
func (r *Recorder) SetOverlap(o OverlapStats) {
	r.overlapMu.Lock()
	r.overlap = &o
	r.overlapMu.Unlock()
}

// Snapshot derives RunStats from the counters so far.
func (r *Recorder) Snapshot() RunStats {
	s := RunStats{
		Label:       r.label,
		Workers:     r.workers,
		WallNS:      time.Since(r.start).Nanoseconds(), //dynnlint:ignore determinism recorder wall time feeds reports only, never simulated state
		Samples:     r.samples.Load(),
		Mispredicts: r.mispredicts.Load(),
		CacheHits:   r.cacheHits.Load(),
	}
	if s.WallNS > 0 {
		s.SamplesPerSec = float64(s.Samples) / (float64(s.WallNS) / 1e9)
	}
	if s.Samples > 0 {
		s.MispredictRate = float64(s.Mispredicts) / float64(s.Samples)
		s.CacheHitRate = float64(s.CacheHits) / float64(s.Samples)
	}
	r.faultMu.Lock()
	if r.faultsSeen {
		f := r.faults
		s.Faults = &f
	}
	r.faultMu.Unlock()
	r.overlapMu.Lock()
	if r.overlap != nil {
		o := *r.overlap
		s.Overlap = &o
	}
	r.overlapMu.Unlock()
	r.serveMu.Lock()
	if r.serve != nil {
		sv := *r.serve
		s.Serve = &sv
	}
	r.serveMu.Unlock()
	if d, ok := r.sink.(interface{ Dropped() int64 }); ok {
		s.SinkDropped = d.Dropped()
	}
	r.phases.Range(func(k, v any) bool {
		if s.Phases == nil {
			s.Phases = map[string]HistogramStats{}
		}
		s.Phases[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	return s
}

// Finish snapshots the run, emits a run_end event, flushes the sink, and
// returns the stats. Any events the sink dropped (and its first write error)
// are reported in the returned RunStats — observability never fails the run
// it observes, but it no longer fails silently either.
func (r *Recorder) Finish() RunStats {
	s := r.Snapshot()
	r.emit(Event{Type: EventRunEnd, Label: r.label, Workers: r.workers, Stats: &s})
	if err := r.Err(); err != nil {
		s.SinkErr = err.Error()
	}
	if d, ok := r.sink.(interface{ Dropped() int64 }); ok {
		s.SinkDropped = d.Dropped()
	}
	return s
}

// Err flushes the sink (when it supports flushing) and returns its first
// write error, nil when every event landed.
func (r *Recorder) Err() error {
	if f, ok := r.sink.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

func (r *Recorder) emit(ev Event) {
	if r.sink == nil {
		return
	}
	ev.TimeNS = time.Since(r.start).Nanoseconds() //dynnlint:ignore determinism recorder wall time feeds reports only, never simulated state
	r.sink.Emit(ev)
}
