package obsv

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"unicode/utf8"
)

// Span tracing records what the end-of-epoch aggregates cannot show: *when*,
// on the simulated DES clock, each prefetch, compute interval, eviction, and
// recovery step ran, so overlap ("did the transfer hide behind compute?") is
// measured rather than inferred. Spans carry simulated nanoseconds only, so
// the same span set replays bit-for-bit at any worker count; host wall time
// (pilot inference, mapping) lives in the sample results, not the trace.

// SpanKind classifies one traced interval of a sample's execution.
type SpanKind string

const (
	// SpanSample is the whole-sample envelope on the host track (synthesized
	// by the Tracer from the sample's last span end).
	SpanSample SpanKind = "sample"
	// SpanPilot marks one pilot prediction. Pilot inference is measured in
	// host wall time, not DES time, so the span is an instant on the
	// simulated clock.
	SpanPilot SpanKind = "pilot"
	// SpanMapping marks the pilot output→path mapping (instant, like pilot).
	SpanMapping SpanKind = "mapping"
	// SpanCompute is one execution block's compute interval.
	SpanCompute SpanKind = "compute"
	// SpanPrefetch is a scheduled H2D prefetch of a block's tensors.
	SpanPrefetch SpanKind = "prefetch"
	// SpanEvict is a D2H write-back of a retired block's tensors.
	SpanEvict SpanKind = "evict"
	// SpanOnDemand is an exposed on-demand fetch (mis-prediction or dropped
	// prefetch): migration on the critical path.
	SpanOnDemand SpanKind = "ondemand"
	// SpanRetry is one faulted attempt in the recovery ladder: an aborted
	// transfer's wasted lane occupancy, or a backoff wait after a transient
	// allocation failure.
	SpanRetry SpanKind = "retry"
	// SpanFault is the tensor-fault handler round trip charged when a sample
	// degrades to on-demand fetching.
	SpanFault SpanKind = "fault"
	// SpanQueue is a serving request's wait in the admission queue before its
	// batch dispatched (host lane; simulated ns). Timeline reconstruction
	// ignores it — queueing is scheduler state, not device occupancy.
	SpanQueue SpanKind = "queue"
	// SpanAllReduce is one scheduled ring all-reduce send on an interconnect
	// link lane ("link/..."), recorded by the cluster runtime.
	SpanAllReduce SpanKind = "allreduce"
	// SpanOffload is a GPU's layer-offload (H2D+D2H) occupancy of its node's
	// shared host link, on the same "link/..." lanes as the ring sends it
	// contends with.
	SpanOffload SpanKind = "offload"
)

// Lane names for Span.Lane. Compute/H2D/D2H mirror gpusim's three hardware
// queues; host carries sample envelopes, pilot instants, and alloc backoffs.
const (
	LaneCompute = "compute"
	LaneH2D     = "h2d"
	LaneD2H     = "d2h"
	LaneHost    = "host"
)

// Span is one traced interval. StartNS/DurNS are simulated DES nanoseconds;
// until the Tracer lays samples onto the epoch timeline, StartNS is relative
// to the sample's own clock (every sample simulates from t=0).
type Span struct {
	Sample int      `json:"sample"`
	Kind   SpanKind `json:"kind"`
	Lane   string   `json:"lane"`
	// Block is the execution-block index the span belongs to, -1 when the
	// span is not block-scoped (envelope, pilot, mapping).
	Block   int   `json:"block"`
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	Bytes   int64 `json:"bytes,omitempty"`
	// Attempt numbers retry spans within one recovery ladder (1-based).
	Attempt int `json:"attempt,omitempty"`
	// Outcome tags, meaningful on the sample envelope.
	Mispredicted bool `json:"mispredicted,omitempty"`
	CacheHit     bool `json:"cache_hit,omitempty"`
	// Request identity, stamped by the serving layer (SampleTrace.SetRequest)
	// on every span of a served request's trace so one cluster-wide timeline
	// can be assembled per request; Replica is stamped by the cluster runtimes
	// (SetReplica). Zero values on non-serving traces.
	Request int64  `json:"request,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Replica int    `json:"replica,omitempty"`
}

// End returns the span's end time on its clock.
func (s Span) End() int64 { return s.StartNS + s.DurNS }

// SampleTrace collects one sample's spans. It is written by exactly one
// goroutine (the worker simulating the sample); all methods are nil-safe
// no-ops so untraced call sites need no branching — the same discipline as
// faults.Stream.
type SampleTrace struct {
	sample   int
	absolute bool
	base     int64
	outcome  outcome
	request  int64
	tenant   string
	replica  int
	spans    []Span
}

// SetBase places the sample on an external shared clock: every span recorded
// after the call lands at base + its in-sample offset. The cluster runtime
// sets it to a GPU's virtual clock before dispatching, so per-GPU work and
// interconnect transfers share one absolute timeline. It applies only to a
// tracer built WithAbsoluteTime; the serial-equivalent layout starts every
// sample at its own t=0, so there the call is a no-op and callers can pass
// their clock unconditionally.
func (st *SampleTrace) SetBase(baseNS int64) {
	if st == nil || !st.absolute {
		return
	}
	st.base = baseNS
}

// Span records one interval.
func (st *SampleTrace) Span(kind SpanKind, lane string, block int, startNS, durNS, bytes int64) {
	if st == nil {
		return
	}
	st.spans = append(st.spans, Span{
		Sample: st.sample, Kind: kind, Lane: lane, Block: block,
		StartNS: st.base + startNS, DurNS: durNS, Bytes: bytes,
		Request: st.request, Tenant: st.tenant, Replica: st.replica,
	})
}

// Retry records one faulted attempt of the recovery ladder.
func (st *SampleTrace) Retry(lane string, block int, startNS, durNS, bytes int64, attempt int) {
	if st == nil {
		return
	}
	st.spans = append(st.spans, Span{
		Sample: st.sample, Kind: SpanRetry, Lane: lane, Block: block,
		StartNS: st.base + startNS, DurNS: durNS, Bytes: bytes, Attempt: attempt,
		Request: st.request, Tenant: st.tenant, Replica: st.replica,
	})
}

// SetRequest tags the trace — spans already recorded and spans still to
// come — with the served request's identity, threading the causal request
// context through every lane the request touches. The serving layer calls it
// after dispatch, when the engine's spans are already in place.
func (st *SampleTrace) SetRequest(id int64, tenant string) {
	if st == nil {
		return
	}
	st.request, st.tenant = id, tenant
	for i := range st.spans {
		st.spans[i].Request, st.spans[i].Tenant = id, tenant
	}
}

// SetReplica tags the trace (retroactively and forward) with the GPU replica
// that executed it, so overlapping per-replica work stays attributable on the
// shared cluster clock.
func (st *SampleTrace) SetReplica(r int) {
	if st == nil {
		return
	}
	st.replica = r
	for i := range st.spans {
		st.spans[i].Replica = r
	}
}

// Instant records a zero-duration marker at simulated t=0 for a host-side
// step whose real cost is wall time (pilot inference, output mapping); that
// cost lives in the sample's result, never in the trace.
func (st *SampleTrace) Instant(kind SpanKind) {
	if st == nil {
		return
	}
	st.spans = append(st.spans, Span{
		Sample: st.sample, Kind: kind, Lane: LaneHost, Block: -1, StartNS: st.base,
		Request: st.request, Tenant: st.tenant, Replica: st.replica,
	})
}

// Outcome tags the sample's envelope with its prediction outcome.
func (st *SampleTrace) Outcome(mispredicted, cacheHit bool) {
	if st == nil {
		return
	}
	st.outcome = outcome{set: true, mispredicted: mispredicted, cacheHit: cacheHit}
}

// Shift moves every span recorded so far deltaNS later on the simulated
// clock. The serving layer uses it to push a request's engine spans past its
// queue wait before recording the SpanQueue interval at the origin.
func (st *SampleTrace) Shift(deltaNS int64) {
	if st == nil || deltaNS == 0 {
		return
	}
	for i := range st.spans {
		st.spans[i].StartNS += deltaNS
	}
}

type outcome struct {
	set          bool
	mispredicted bool
	cacheHit     bool
}

// makespanNS is the sample's last span end on the simulated clock.
func (st *SampleTrace) makespanNS() int64 {
	var end int64
	for _, sp := range st.spans {
		if e := sp.End(); e > end {
			end = e
		}
	}
	return end
}

// firstStartNS is the sample's earliest span start (0 when empty).
func (st *SampleTrace) firstStartNS() int64 {
	if len(st.spans) == 0 {
		return 0
	}
	start := st.spans[0].StartNS
	for _, sp := range st.spans[1:] {
		if sp.StartNS < start {
			start = sp.StartNS
		}
	}
	return start
}

// Chrome Trace Event Format export (Perfetto-loadable). The file is the
// JSON-object form: {"traceEvents": [...], "displayTimeUnit": "ns",
// "otherData": {...}} with complete ("X"), instant ("i"), and metadata ("M")
// events. Timestamps are microseconds (the format's unit), emitted as exact
// multiples of 1/1000 so ns round-trip through ReadChromeTrace.

// ChromeMeta is run-level metadata carried in the trace file's otherData so
// analysis tools (cmd/dynntrace) can derive bandwidth utilization offline.
type ChromeMeta struct {
	Label string `json:"label,omitempty"`
	// LinkBWBytesPerSec is the simulated PCIe link bandwidth.
	LinkBWBytesPerSec float64 `json:"link_bw_bytes_per_sec,omitempty"`
	Samples           int     `json:"samples,omitempty"`
}

// chromeArgs is the deterministic argument payload of one event. Field order
// is fixed by the struct, so encoding is byte-stable.
type chromeArgs struct {
	Sample       int      `json:"sample,omitempty"`
	Kind         SpanKind `json:"kind,omitempty"`
	Block        *int     `json:"block,omitempty"`
	Bytes        int64    `json:"bytes,omitempty"`
	Attempt      int      `json:"attempt,omitempty"`
	Mispredicted bool     `json:"mispredicted,omitempty"`
	CacheHit     bool     `json:"cache_hit,omitempty"`
	Request      int64    `json:"request,omitempty"`
	Tenant       string   `json:"tenant,omitempty"`
	Replica      int      `json:"replica,omitempty"`
	Name         string   `json:"name,omitempty"` // metadata events only
}

type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	TS   float64     `json:"ts"`
	Dur  *float64    `json:"dur,omitempty"`
	PID  int         `json:"pid"`
	TID  int         `json:"tid"`
	S    string      `json:"s,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
	OtherData       *ChromeMeta   `json:"otherData,omitempty"`
}

// laneTIDs fixes the lane→thread-id layout of the exported trace.
var laneTIDs = map[string]int{LaneHost: 1, LaneCompute: 2, LaneH2D: 3, LaneD2H: 4}

// laneOfTID inverts laneTIDs.
func laneOfTID(tid int) string {
	for lane, id := range laneTIDs {
		if id == tid {
			return lane
		}
	}
	return LaneHost
}

const chromePID = 1

// usOf converts simulated ns to the format's microsecond unit; nsOf maps it
// back to the same ns for any time within maxTraceUS.
func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// nsOf inverts usOf.
func nsOf(us float64) int64 { return int64(math.Round(us * 1e3)) }

// WriteChromeTrace serializes spans (in the order given — use Tracer.Spans
// for the canonical epoch timeline) as Chrome Trace Event Format JSON.
// Lanes beyond the four fixed hardware queues (e.g. the cluster runtime's
// "link/..." interconnect lanes) get thread ids 5+ in first-appearance order,
// each announced by its own thread_name metadata event, so ReadChromeTrace
// round-trips them by name. It writes nothing and returns an error when a
// span fails checkSpan, so every trace it writes reads back equal.
func WriteChromeTrace(w io.Writer, spans []Span, meta ChromeMeta) error {
	for i, sp := range spans {
		if err := checkSpan(sp); err != nil {
			return fmt.Errorf("obsv: chrome trace: span %d: %w", i, err)
		}
	}
	procName := "dynnoffload"
	if meta.Label != "" {
		procName += " " + meta.Label
	}
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: chromePID, Args: &chromeArgs{Name: procName}},
	}
	for _, lane := range []string{LaneHost, LaneCompute, LaneH2D, LaneD2H} {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: laneTIDs[lane],
			Args: &chromeArgs{Name: lane},
		})
	}
	tids := make(map[string]int, len(laneTIDs))
	for lane, tid := range laneTIDs {
		tids[lane] = tid
	}
	for _, sp := range spans {
		if _, ok := tids[sp.Lane]; !ok {
			tid := len(tids) + 1
			tids[sp.Lane] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: chromePID, TID: tid,
				Args: &chromeArgs{Name: sp.Lane},
			})
		}
	}
	for _, sp := range spans {
		args := &chromeArgs{
			Sample: sp.Sample, Kind: sp.Kind, Bytes: sp.Bytes, Attempt: sp.Attempt,
			Mispredicted: sp.Mispredicted, CacheHit: sp.CacheHit,
			Request: sp.Request, Tenant: sp.Tenant, Replica: sp.Replica,
		}
		if sp.Block >= 0 {
			b := sp.Block
			args.Block = &b
		}
		ev := chromeEvent{
			Name: string(sp.Kind), Cat: string(sp.Kind), Ph: "X",
			TS: usOf(sp.StartNS), PID: chromePID, TID: tids[sp.Lane], Args: args,
		}
		if sp.Block >= 0 {
			ev.Name = fmt.Sprintf("%s b%d", sp.Kind, sp.Block)
		}
		if sp.DurNS == 0 && (sp.Kind == SpanPilot || sp.Kind == SpanMapping) {
			ev.Ph, ev.S = "i", "t"
		} else {
			dur := usOf(sp.DurNS)
			ev.Dur = &dur
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{
		TraceEvents:     events,
		DisplayTimeUnit: "ns",
		OtherData:       &meta,
	})
}

// checkSpan rejects a span ReadChromeTrace could not give back as it is: one
// without a kind (its event would have no name) or a lane (its thread would
// have no name), a block below -1 (written as absent, it would read back as
// -1), a string that is not UTF-8 (JSON would replace the bad bytes), or a
// start or duration outside [0, maxTraceNS].
func checkSpan(sp Span) error {
	switch {
	case sp.Kind == "":
		return fmt.Errorf("span without kind")
	case sp.Lane == "":
		return fmt.Errorf("%s span without lane", sp.Kind)
	case sp.Block < -1:
		return fmt.Errorf("%s span with block %d", sp.Kind, sp.Block)
	case !utf8.ValidString(string(sp.Kind)) || !utf8.ValidString(sp.Lane) || !utf8.ValidString(sp.Tenant):
		return fmt.Errorf("span kind, lane or tenant is not UTF-8")
	case sp.StartNS < 0 || sp.StartNS > maxTraceNS || sp.DurNS < 0 || sp.DurNS > maxTraceNS:
		return fmt.Errorf("%s span start %d or duration %d outside [0, %d] ns", sp.Kind, sp.StartNS, sp.DurNS, int64(maxTraceNS))
	}
	return nil
}

// ReadChromeTrace parses a trace written by WriteChromeTrace back into spans
// (in file order) and its metadata. It rejects every event CheckChromeTrace
// rejects, so it loads only X, i and M events, and only process_name and
// thread_name metadata; traces re-saved by other tools with further phases
// (B/E, C) or metadata must be converted first.
func ReadChromeTrace(r io.Reader) ([]Span, ChromeMeta, error) {
	var f chromeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, ChromeMeta{}, fmt.Errorf("obsv: chrome trace: %w", err)
	}
	var meta ChromeMeta
	if f.OtherData != nil {
		meta = *f.OtherData
	}
	// Prefer the file's own thread_name metadata over the fixed layout, so
	// lanes keep their names when threads were renumbered.
	tidLane := map[int]string{}
	for i, ev := range f.TraceEvents {
		if err := checkEvent(ev); err != nil {
			return nil, ChromeMeta{}, fmt.Errorf("obsv: chrome trace: event %d: %w", i, err)
		}
		if ev.Name == "thread_name" && ev.Ph == "M" {
			tidLane[ev.TID] = ev.Args.Name
		}
	}
	var spans []Span
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		lane, ok := tidLane[ev.TID]
		if !ok {
			lane = laneOfTID(ev.TID)
		}
		// The kind is args.kind, else the category, else the event name.
		sp := Span{Kind: SpanKind(cmp.Or(ev.Cat, ev.Name)), Lane: lane, Block: -1, StartNS: nsOf(ev.TS)}
		if ev.Dur != nil {
			sp.DurNS = nsOf(*ev.Dur)
		}
		if ev.Args != nil {
			sp.Sample = ev.Args.Sample
			if ev.Args.Kind != "" {
				sp.Kind = ev.Args.Kind
			}
			if ev.Args.Block != nil {
				sp.Block = *ev.Args.Block
			}
			sp.Bytes = ev.Args.Bytes
			sp.Attempt = ev.Args.Attempt
			sp.Mispredicted = ev.Args.Mispredicted
			sp.CacheHit = ev.Args.CacheHit
			sp.Request = ev.Args.Request
			sp.Tenant = ev.Args.Tenant
			sp.Replica = ev.Args.Replica
		}
		spans = append(spans, sp)
	}
	return spans, meta, nil
}

// CheckChromeTrace validates that r holds a Chrome Trace Event Format file
// ReadChromeTrace loads: a non-empty traceEvents array in which every event
// passes checkEvent. It returns the first violation found, nil when the file
// is loadable.
func CheckChromeTrace(r io.Reader) error {
	var f chromeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("obsv: chrome trace: not valid JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("obsv: chrome trace: empty traceEvents array")
	}
	for i, ev := range f.TraceEvents {
		if err := checkEvent(ev); err != nil {
			return fmt.Errorf("obsv: chrome trace: event %d: %w", i, err)
		}
	}
	return nil
}

// maxTraceNS and maxTraceUS bound span and event times: up to 2^50 ns (about
// 13 days of simulated time) nsOf(usOf(ns)) == ns, and a span's start plus
// its duration cannot overflow int64.
const (
	maxTraceNS = 1 << 50
	maxTraceUS = float64(maxTraceNS) / 1e3
)

// checkEvent validates one event: a known phase, named metadata, and for
// slices and instants a name, timestamps and durations in [0, maxTraceUS]
// and a non-negative block; pid and tid are never negative.
func checkEvent(ev chromeEvent) error {
	switch {
	case ev.Ph == "M":
		if ev.Name != "process_name" && ev.Name != "thread_name" {
			return fmt.Errorf("unknown metadata event %q", ev.Name)
		}
		if ev.Args == nil || ev.Args.Name == "" {
			return fmt.Errorf("metadata event %q without args.name", ev.Name)
		}
	case ev.Ph != "X" && ev.Ph != "i":
		return fmt.Errorf("unsupported phase %q", ev.Ph)
	case ev.Name == "":
		return fmt.Errorf("%s event without name", ev.Ph)
	case ev.Ph == "i" && ev.S != "" && ev.S != "t" && ev.S != "p" && ev.S != "g":
		return fmt.Errorf("instant event scope %q", ev.S)
	case ev.TS < 0:
		return fmt.Errorf("negative ts %v", ev.TS)
	case ev.Ph == "X" && ev.Dur == nil, ev.Dur != nil && *ev.Dur < 0:
		return fmt.Errorf("%s event %q without non-negative dur", ev.Ph, ev.Name)
	case ev.TS > maxTraceUS, ev.Dur != nil && *ev.Dur > maxTraceUS:
		return fmt.Errorf("ts or dur beyond %v us", maxTraceUS)
	case ev.Args != nil && ev.Args.Block != nil && *ev.Args.Block < 0:
		return fmt.Errorf("negative block %d", *ev.Args.Block)
	}
	if ev.PID < 0 || ev.TID < 0 {
		return fmt.Errorf("negative pid/tid (%d/%d)", ev.PID, ev.TID)
	}
	return nil
}

// SortSpans orders spans canonically: by sample, then start, lane, kind,
// block, attempt. Tracer.Spans already returns this order for engine traces;
// SortSpans normalizes spans loaded from external files.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Sample != b.Sample {
			return a.Sample < b.Sample
		}
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Attempt < b.Attempt
	})
}
