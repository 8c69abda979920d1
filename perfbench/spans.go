package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made: a whole op, a public facade
// call inside it, or one call of a layer entry point during the replay.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // the op whose inputs the span served
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // wall ns since the recorder started
	End    int64  `json:"end_ns"`
}

// spans keeps every span in memory until the run ends. A nil *spans records
// nothing, so untraced ops pay one nil check per call site.
type spans struct {
	t0  time.Time
	all []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil recorder).
func (s *spans) start(name string, op, parent int) int {
	if s == nil {
		return 0
	}
	s.all = append(s.all, span{
		ID: len(s.all) + 1, Parent: parent, Op: op, Name: name,
		Start: time.Since(s.t0).Nanoseconds(),
	})
	return len(s.all)
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.all[id-1].End = time.Since(s.t0).Nanoseconds()
}

// rename relabels span id, for calls whose kind is known only on return
// (an online Observe that did or did not retrain).
func (s *spans) rename(id int, name string) {
	if s == nil || id == 0 {
		return
	}
	s.all[id-1].Name = name
}

// selfTime is the per-name aggregate of span self time: each span's
// duration minus the part its direct children cover.
type selfTime struct {
	Calls  int
	SelfNS int64
	WallNS int64
}

// perCallUS is mean self time per call in microseconds.
func (t selfTime) perCallUS() float64 {
	if t.Calls == 0 {
		return 0
	}
	return float64(t.SelfNS) / float64(t.Calls) / 1e3
}

// bySelfFrom aggregates self time by span name over the spans recorded
// from index from on. Children of one span never overlap (the benchmark
// calls layers one at a time), so subtracting their durations is exact.
func (s *spans) bySelfFrom(from int) map[string]selfTime {
	child := make([]int64, len(s.all)+1)
	for _, sp := range s.all {
		if sp.Parent > 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string]selfTime{}
	for _, sp := range s.all[from:] {
		t := out[sp.Name]
		t.Calls++
		t.WallNS += sp.End - sp.Start
		t.SelfNS += sp.End - sp.Start - child[sp.ID]
		out[sp.Name] = t
	}
	return out
}

// opSpans summarizes the traced ops: their count, mean wall time, and the
// mean wall time per op of each public call made inside them.
type opSpans struct {
	ops    int
	opUS   float64
	callUS map[string]float64
}

// opSpanName names the span around one whole op.
const opSpanName = "op"

// traced summarizes the op spans recorded so far and their direct children.
func (s *spans) traced() opSpans {
	o := opSpans{callUS: map[string]float64{}}
	isOp := map[int]bool{}
	var wall int64
	for _, sp := range s.all {
		if sp.Name == opSpanName {
			isOp[sp.ID] = true
			o.ops++
			wall += sp.End - sp.Start
		}
	}
	if o.ops == 0 {
		return o
	}
	o.opUS = float64(wall) / float64(o.ops) / 1e3
	for _, sp := range s.all {
		if isOp[sp.Parent] {
			o.callUS[sp.Name] += float64(sp.End-sp.Start) / float64(o.ops) / 1e3
		}
	}
	return o
}

// write stores the spans as JSON lines, in start order.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	ordered := append([]span(nil), s.all...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })
	enc := json.NewEncoder(w)
	for _, sp := range ordered {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("perfbench: spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("perfbench: spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("perfbench: spans: %w", err)
	}
	return nil
}
