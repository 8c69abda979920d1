package obsv

import (
	"sort"
	"sync"
)

// Tracer collects per-sample span traces from concurrent epoch workers and
// lays them onto one canonical epoch timeline. Each SampleTrace is handed to
// exactly one worker goroutine; the Tracer itself only guards the registry,
// so tracing adds no synchronization to the simulation hot path.
//
// Determinism contract: Spans() is a pure function of the epoch's simulated
// execution — bit-identical across runs and worker counts, exactly like the
// epoch aggregates. No span carries a host wall-clock value.
type Tracer struct {
	absolute bool

	mu      sync.Mutex
	samples map[int]*SampleTrace
}

// TracerOption configures NewTracer.
type TracerOption func(*Tracer)

// WithAbsoluteTime declares that samples are recorded on one shared virtual
// clock (SampleTrace.SetBase / EpochOptions.ClockBaseNS): Spans returns them
// as laid, instead of offsetting each sample by the cumulative makespan of
// the ones before it. The cluster runtime traces in this mode — its per-GPU
// dispatches genuinely overlap on the timeline.
func WithAbsoluteTime() TracerOption {
	return func(t *Tracer) { t.absolute = true }
}

// NewTracer builds an empty tracer.
func NewTracer(opts ...TracerOption) *Tracer {
	t := &Tracer{samples: map[int]*SampleTrace{}}
	for _, o := range opts {
		o(t)
	}
	return t
}

// AbsoluteTime reports whether samples are laid on one shared virtual clock
// (WithAbsoluteTime) instead of the serial-equivalent offset layout.
func (t *Tracer) AbsoluteTime() bool { return t != nil && t.absolute }

// Sample registers and returns the trace collector for one sample index.
// Nil-safe: a nil tracer yields a nil SampleTrace, whose methods no-op.
func (t *Tracer) Sample(idx int) *SampleTrace {
	if t == nil {
		return nil
	}
	st := &SampleTrace{sample: idx, absolute: t.absolute}
	t.mu.Lock()
	t.samples[idx] = st
	t.mu.Unlock()
	return st
}

// At returns the already-registered trace for one sample index, nil when the
// index was never registered (or the tracer is nil). The serving layer uses
// it to annotate a request's trace with queue spans after its batch returns.
func (t *Tracer) At(idx int) *SampleTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.samples[idx]
}

// SampleCount returns the number of registered samples.
func (t *Tracer) SampleCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.samples)
}

// Spans returns every recorded span on the canonical epoch timeline: samples
// sorted by index, each offset by the cumulative makespan of the samples
// before it — the serial-equivalent schedule, independent of which worker
// simulated what when. A sample envelope span (SpanSample, host lane) is
// synthesized per sample carrying its outcome tags. Call after the epoch
// completes; concurrent use with in-flight workers sees a partial trace.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	idxs := make([]int, 0, len(t.samples))
	for idx := range t.samples {
		idxs = append(idxs, idx) //dynnlint:ignore determinism indices are sorted immediately below
	}
	sts := make([]*SampleTrace, 0, len(idxs))
	sort.Ints(idxs)
	for _, idx := range idxs {
		sts = append(sts, t.samples[idx])
	}
	t.mu.Unlock()

	var out []Span
	var offset int64
	for _, st := range sts {
		makespan := st.makespanNS()
		start := offset
		dur := makespan
		if t.absolute {
			// Shared-clock layout: spans are already absolute; the envelope
			// brackets the sample's own first..last span.
			start = st.firstStartNS()
			dur = makespan - start
			if dur < 0 {
				dur = 0
			}
		}
		env := Span{
			Sample: st.sample, Kind: SpanSample, Lane: LaneHost, Block: -1,
			StartNS: start, DurNS: dur,
			Mispredicted: st.outcome.mispredicted, CacheHit: st.outcome.cacheHit,
			Request: st.request, Tenant: st.tenant, Replica: st.replica,
		}
		out = append(out, env)
		for _, sp := range st.spans {
			if !t.absolute {
				sp.StartNS += offset
			}
			out = append(out, sp)
		}
		offset += makespan
	}
	return out
}
