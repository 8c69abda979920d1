// Package faults is a deterministic, seeded fault injector for the gpusim
// device model. The paper's pilot is explicitly best-effort — mis-predictions
// must degrade to on-demand fetches without corrupting training (§IV-E) — and
// the same discipline extends to the simulated device: transfers may stall or
// abort, allocations may transiently fail, and a predicted block's tensors may
// silently not be resident. The injector decides each fault as a pure hash of
// (seed, scope, operation sequence number), so a fault schedule is a function
// of the configuration alone: no global RNG, no wall clock, and no shared
// mutable state between samples. That is what makes the engine's epoch
// aggregates reproducible at any worker count even with faults enabled —
// every sample draws from its own scoped stream, and all counters fold
// commutatively.
//
// The package is pure stdlib with no dependencies on the rest of the repo, so
// gpusim, core, and the CLIs can all import it.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// TransferStall multiplies one transfer's latency by Config.StallFactor
	// (link contention, bandwidth collapse).
	TransferStall Kind = iota
	// TransferAbort fails one transfer mid-flight; the operation must be
	// re-issued by the caller.
	TransferAbort
	// AllocFail makes one allocation transiently fail (allocator pressure);
	// the condition clears on retry.
	AllocFail
	// PrefetchDrop silently skips one predicted block's prefetch: the
	// tensors are not resident when the block starts, exercising the
	// on-demand path beyond pilot mis-predictions.
	PrefetchDrop

	// NumKinds is the number of fault classes.
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case TransferStall:
		return "transfer-stall"
	case TransferAbort:
		return "transfer-abort"
	case AllocFail:
		return "alloc-fail"
	case PrefetchDrop:
		return "prefetch-drop"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Config seeds and sizes an Injector.
type Config struct {
	// Seed selects the fault schedule. Two injectors with the same seed and
	// rate produce identical schedules.
	Seed uint64
	// Rate is the per-consultation fault probability in [0, 1]. Zero
	// disables injection entirely.
	Rate float64
	// StallFactor multiplies a stalled transfer's duration (default 4).
	StallFactor int64
}

// defaults normalizes zero fields.
func (c *Config) defaults() {
	if c.StallFactor <= 1 {
		c.StallFactor = 4
	}
	if c.Rate < 0 {
		c.Rate = 0
	}
	if c.Rate > 1 {
		c.Rate = 1
	}
}

// ParseSpec parses the CLI form "seed=N,rate=R[,stall=F]" (any subset, any
// order) into a Config, e.g. dynnbench's -faults seed=7,rate=0.1.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("faults: bad spec element %q (want key=value)", part)
		}
		switch kv[0] {
		case "seed":
			v, err := strconv.ParseUint(kv[1], 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("faults: bad seed %q: %w", kv[1], err)
			}
			cfg.Seed = v
		case "rate":
			v, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return cfg, fmt.Errorf("faults: bad rate %q: %w", kv[1], err)
			}
			// NaN fails every comparison, so it is rejected by name: let
			// through, it would silently disable injection.
			if math.IsNaN(v) || v < 0 || v > 1 {
				return cfg, fmt.Errorf("faults: rate %v out of [0,1]", v)
			}
			cfg.Rate = v
		case "stall":
			v, err := strconv.ParseInt(kv[1], 10, 64)
			if err != nil || v < 1 {
				return cfg, fmt.Errorf("faults: bad stall factor %q", kv[1])
			}
			cfg.StallFactor = v
		default:
			return cfg, fmt.Errorf("faults: unknown spec key %q", kv[0])
		}
	}
	return cfg, nil
}

// Injector hands out deterministic fault streams. It is immutable after New
// and safe for concurrent use from any number of goroutines.
type Injector struct {
	cfg Config
}

// New builds an injector; a nil result is never returned, and a Rate of zero
// yields an injector whose streams inject nothing.
func New(cfg Config) *Injector {
	cfg.defaults()
	return &Injector{cfg: cfg}
}

// Enabled reports whether the injector can inject anything at all.
func (inj *Injector) Enabled() bool { return inj != nil && inj.cfg.Rate > 0 }

// Stream derives the fault stream for one scope — typically one sample's
// simulation. Streams with the same (injector seed, scope) replay the same
// schedule; distinct scopes are statistically independent. A Stream is not
// safe for concurrent use; derive one per goroutine. Returns nil when the
// injector is nil or disabled — all Stream methods are nil-safe no-ops.
func (inj *Injector) Stream(scope uint64) *Stream {
	if !inj.Enabled() {
		return nil
	}
	return &Stream{
		seed:  mix64(inj.cfg.Seed) ^ mix64(scope*0x9e3779b97f4a7c15+0x6a09e667f3bcc909),
		rate:  inj.cfg.Rate,
		stall: inj.cfg.StallFactor,
	}
}

// TransferFault is the injector's decision for one transfer operation.
type TransferFault struct {
	// StallFactor >= 1 multiplies the transfer duration (1 = no stall).
	StallFactor int64
	// Abort fails the transfer mid-flight; the caller must re-issue it.
	Abort bool
}

// Counters tallies injected faults and the engine's recovery work. Every
// field is a commutative sum, so per-sample counters fold into epoch totals
// in any order — the same property that makes parallel epoch aggregation
// exact.
type Counters struct {
	// Injected faults by class.
	TransferStalls int64
	TransferAborts int64
	AllocFaults    int64
	PrefetchDrops  int64

	// Recovery work.
	Retries           int64 // re-issued operations (transfers and allocations)
	BackoffNS         int64 // simulated time spent in exponential backoff
	OnDemandFallbacks int64 // blocks degraded from prefetch to on-demand fetch
	EvictRetries      int64 // allocations satisfied only after evicting residents
	SyncFallbacks     int64 // transfers forced through the final blocking copy
}

// Injected returns the total number of injected faults across all classes.
func (c Counters) Injected() int64 {
	return c.TransferStalls + c.TransferAborts + c.AllocFaults + c.PrefetchDrops
}

// Add returns the element-wise sum.
func (c Counters) Add(o Counters) Counters {
	c.TransferStalls += o.TransferStalls
	c.TransferAborts += o.TransferAborts
	c.AllocFaults += o.AllocFaults
	c.PrefetchDrops += o.PrefetchDrops
	c.Retries += o.Retries
	c.BackoffNS += o.BackoffNS
	c.OnDemandFallbacks += o.OnDemandFallbacks
	c.EvictRetries += o.EvictRetries
	c.SyncFallbacks += o.SyncFallbacks
	return c
}

// Stream draws one scope's fault schedule and tallies what was injected and
// how the caller recovered. The zero of every method on a nil Stream is "no
// fault", so fault-free paths need no branching at call sites.
type Stream struct {
	seed  uint64
	rate  float64
	stall int64
	seq   uint64
	c     Counters
}

// draw advances the sequence and returns (faulty, selector) where selector is
// an independent uniform 64-bit value for picking the fault flavor.
func (s *Stream) draw() (bool, uint64) {
	s.seq++
	h := mix64(s.seed ^ mix64(s.seq))
	u := float64(h>>11) / (1 << 53)
	return u < s.rate, mix64(h ^ 0xd6e8feb86659fd93)
}

// Transfer consults the stream at a transfer site. At most one fault class is
// injected per operation: half the faulty draws stall, half abort.
func (s *Stream) Transfer() TransferFault {
	f := TransferFault{StallFactor: 1}
	if s == nil {
		return f
	}
	faulty, sel := s.draw()
	if !faulty {
		return f
	}
	if sel&1 == 0 {
		s.c.TransferStalls++
		f.StallFactor = s.stall
	} else {
		s.c.TransferAborts++
		f.Abort = true
	}
	return f
}

// Alloc consults the stream at an allocation site; true means the allocation
// transiently fails and should be retried.
func (s *Stream) Alloc() bool {
	if s == nil {
		return false
	}
	faulty, _ := s.draw()
	if faulty {
		s.c.AllocFaults++
	}
	return faulty
}

// PrefetchDrop consults the stream when a predicted block's prefetch is
// issued; true means the prefetch is silently dropped and the block's tensors
// will not be resident at block start.
func (s *Stream) PrefetchDrop() bool {
	if s == nil {
		return false
	}
	faulty, _ := s.draw()
	if faulty {
		s.c.PrefetchDrops++
	}
	return faulty
}

// NoteRetry records one re-issued operation and its simulated backoff wait.
func (s *Stream) NoteRetry(backoffNS int64) {
	if s == nil {
		return
	}
	s.c.Retries++
	s.c.BackoffNS += backoffNS
}

// NoteOnDemandFallback records one block degraded from prefetch to on-demand
// fetching.
func (s *Stream) NoteOnDemandFallback() {
	if s != nil {
		s.c.OnDemandFallbacks++
	}
}

// NoteEvictRetry records one allocation satisfied only after evicting
// residents.
func (s *Stream) NoteEvictRetry() {
	if s != nil {
		s.c.EvictRetries++
	}
}

// NoteSyncFallback records one transfer forced through the final blocking
// synchronous copy after exhausting its retry budget.
func (s *Stream) NoteSyncFallback() {
	if s != nil {
		s.c.SyncFallbacks++
	}
}

// Counters returns the tallies so far (zero for a nil stream).
func (s *Stream) Counters() Counters {
	if s == nil {
		return Counters{}
	}
	return s.c
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64, the
// standard way to turn a counter into uniform bits without any RNG state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
