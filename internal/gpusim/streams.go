package gpusim

import (
	"errors"

	"dynnoffload/internal/faults"
)

// ErrTransferAborted reports an injected mid-flight transfer failure; the
// enqueued operation did not complete and must be re-issued by the caller.
var ErrTransferAborted = errors.New("gpusim: transfer aborted")

// Streams tracks the busy-until virtual time of the three hardware queues a
// policy schedules against. CUDA semantics: operations on one stream are
// ordered; operations on different streams overlap freely; dependencies are
// expressed by starting work at the max of the relevant ready times.
//
// The zero value is a valid, fault-free stream set. NewStreams with
// WithFaultStream attaches a deterministic fault stream that TrySpan consults
// at each transfer; RunSpan stays fault-blind (it is the final rung of the
// recovery ladder).
type Streams struct {
	Compute int64
	H2D     int64
	D2H     int64

	fs *faults.Stream
}

// StreamOption configures NewStreams.
type StreamOption func(*Streams)

// WithFaultStream attaches the fault stream consulted by TrySpan at each
// transfer. A nil stream leaves the Streams fault-free.
func WithFaultStream(fs *faults.Stream) StreamOption {
	return func(s *Streams) { s.fs = fs }
}

// NewStreams builds a stream set from options.
func NewStreams(opts ...StreamOption) *Streams {
	s := &Streams{}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Lane names one hardware queue for RunSpan and TrySpan.
type Lane int

const (
	LaneCompute Lane = iota
	LaneH2D
	LaneD2H
)

func (l Lane) String() string {
	switch l {
	case LaneH2D:
		return "h2d"
	case LaneD2H:
		return "d2h"
	}
	return "compute"
}

func (s *Streams) lane(l Lane) *int64 {
	switch l {
	case LaneH2D:
		return &s.H2D
	case LaneD2H:
		return &s.D2H
	}
	return &s.Compute
}

// RunSpan enqueues work on a lane fault-blind, not starting before ready. It
// returns the time the work actually began (max of lane busy-until and
// ready) and the completion time, so callers can record [start, end) busy
// spans. It never consults the fault stream, which makes it the
// guaranteed-to-complete final rung of the recovery ladder.
func (s *Streams) RunSpan(l Lane, ready, dur int64) (start, end int64) {
	b := s.lane(l)
	start = max64(*b, ready)
	*b = start + dur
	return start, *b
}

// TrySpan enqueues a transfer on a lane, consulting the attached fault
// stream, and returns the occupied interval (see RunSpan). An injected stall
// multiplies the duration by the configured factor; an injected abort
// occupies the lane for half the duration (the wasted mid-flight time) and
// returns ErrTransferAborted — the caller must re-issue. Without a fault
// stream TrySpan is exactly RunSpan.
func (s *Streams) TrySpan(l Lane, ready, dur int64) (start, end int64, err error) {
	f := s.fs.Transfer()
	if f.Abort {
		start, end = s.RunSpan(l, ready, dur/2)
		return start, end, ErrTransferAborted
	}
	start, end = s.RunSpan(l, ready, dur*f.StallFactor)
	return start, end, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
