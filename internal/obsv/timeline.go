package obsv

import (
	"fmt"
	"io"
	"sort"
)

// Timeline derives utilization and overlap metrics from a canonical span set
// (Tracer.Spans or a loaded trace file). All derived numbers are functions
// of simulated time only, so they inherit the trace's determinism.
type Timeline struct {
	spans []Span
	// linkBW is the simulated CPU–GPU link bandwidth in bytes/sec; zero
	// means unknown (PCIe utilization is then omitted).
	linkBW float64
}

// NewTimeline wraps a span set for analysis. Spans are analyzed as given;
// use Tracer.Spans (already canonical) or SortSpans on loaded files.
func NewTimeline(spans []Span, linkBWBytesPerSec float64) *Timeline {
	return &Timeline{spans: spans, linkBW: linkBWBytesPerSec}
}

// OverlapStats summarizes how well migration hid behind compute — the
// paper's bandwidth-overlap claim made measurable. HiddenNS is the portion
// of transfer-lane busy time that ran concurrently with compute; Efficiency
// is HiddenNS/TransferNS (zero when nothing transferred).
type OverlapStats struct {
	MakespanNS int64   `json:"makespan_ns"`
	ComputeNS  int64   `json:"compute_ns"`
	TransferNS int64   `json:"transfer_ns"`
	HiddenNS   int64   `json:"hidden_ns"`
	ExposedNS  int64   `json:"exposed_ns"`
	Efficiency float64 `json:"efficiency"`
	// TransferBytes sums H2D+D2H traffic; PCIeUtil is that traffic over the
	// link's capacity for the whole makespan (0 when bandwidth unknown).
	TransferBytes int64   `json:"transfer_bytes"`
	PCIeUtil      float64 `json:"pcie_util,omitempty"`
	// Per-lane busy time and utilization (busy/makespan), and idle-gap
	// histograms (gaps between consecutive busy intervals on each lane).
	LaneBusyNS map[string]int64          `json:"lane_busy_ns,omitempty"`
	LaneUtil   map[string]float64        `json:"lane_util,omitempty"`
	IdleGaps   map[string]HistogramStats `json:"idle_gaps,omitempty"`
}

// interval is a half-open busy interval [start, end).
type interval struct{ start, end int64 }

// laneIntervals collects the busy intervals of one hardware lane, sorted and
// merged. Host-lane bookkeeping spans (envelopes, instants, alloc backoffs)
// are not hardware occupancy and are excluded by construction (callers pass
// compute/h2d/d2h only).
func (t *Timeline) laneIntervals(lane string) []interval {
	var ivs []interval
	for _, sp := range t.spans {
		if sp.Lane != lane || sp.DurNS <= 0 {
			continue
		}
		ivs = append(ivs, interval{sp.StartNS, sp.End()})
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].end < ivs[j].end
	})
	// Merge overlaps so busy time is measured, not double-counted.
	merged := ivs[:0]
	for _, iv := range ivs {
		if n := len(merged); n > 0 && iv.start <= merged[n-1].end {
			if iv.end > merged[n-1].end {
				merged[n-1].end = iv.end
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

func totalNS(ivs []interval) int64 {
	var t int64
	for _, iv := range ivs {
		t += iv.end - iv.start
	}
	return t
}

// intersectNS returns the total time both interval sets are busy at once.
func intersectNS(a, b []interval) int64 {
	var total int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max64(a[i].start, b[j].start), min64(a[i].end, b[j].end)
		if hi > lo {
			total += hi - lo
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return total
}

// MakespanNS is the end of the last span on the timeline.
func (t *Timeline) MakespanNS() int64 {
	var end int64
	for _, sp := range t.spans {
		if e := sp.End(); e > end {
			end = e
		}
	}
	return end
}

// Overlap computes the timeline's overlap and utilization summary.
func (t *Timeline) Overlap() OverlapStats {
	s := OverlapStats{
		MakespanNS: t.MakespanNS(),
		LaneBusyNS: map[string]int64{},
		LaneUtil:   map[string]float64{},
		IdleGaps:   map[string]HistogramStats{},
	}
	compute := t.laneIntervals(LaneCompute)
	s.ComputeNS = totalNS(compute)
	h2d := t.laneIntervals(LaneH2D)
	d2h := t.laneIntervals(LaneD2H)
	for lane, ivs := range map[string][]interval{LaneCompute: compute, LaneH2D: h2d, LaneD2H: d2h} {
		busy := totalNS(ivs)
		s.LaneBusyNS[lane] = busy
		if s.MakespanNS > 0 {
			s.LaneUtil[lane] = float64(busy) / float64(s.MakespanNS)
		}
		var gaps Histogram
		for i := 1; i < len(ivs); i++ {
			if g := ivs[i].start - ivs[i-1].end; g > 0 {
				gaps.Observe(g)
			}
		}
		s.IdleGaps[lane] = gaps.Snapshot()
	}
	// H2D and D2H are distinct resources: their busy time sums, and each
	// lane's overlap with compute is measured independently.
	s.TransferNS = totalNS(h2d) + totalNS(d2h)
	s.HiddenNS = intersectNS(h2d, compute) + intersectNS(d2h, compute)
	s.ExposedNS = s.TransferNS - s.HiddenNS
	if s.TransferNS > 0 {
		s.Efficiency = float64(s.HiddenNS) / float64(s.TransferNS)
	}
	for _, sp := range t.spans {
		if sp.Lane == LaneH2D || sp.Lane == LaneD2H {
			s.TransferBytes += sp.Bytes
		}
	}
	if t.linkBW > 0 && s.MakespanNS > 0 {
		s.PCIeUtil = float64(s.TransferBytes) / (t.linkBW * float64(s.MakespanNS) / 1e9)
	}
	return s
}

// BlockCost is the per-execution-block critical-path breakdown aggregated
// over every sample: where block i's time went, epoch-wide.
type BlockCost struct {
	Block      int   `json:"block"`
	ComputeNS  int64 `json:"compute_ns"`
	PrefetchNS int64 `json:"prefetch_ns"`
	EvictNS    int64 `json:"evict_ns"`
	OnDemandNS int64 `json:"ondemand_ns"`
	RetryNS    int64 `json:"retry_ns"`
	// StallNS is the exposed wait before the block's compute began — the
	// critical-path cost of migration that did not hide.
	StallNS int64 `json:"stall_ns"`
	Spans   int   `json:"spans"`
}

// Blocks aggregates the per-block breakdown, ordered by block index.
func (t *Timeline) Blocks() []BlockCost {
	costs := map[int]*BlockCost{}
	get := func(b int) *BlockCost {
		if c, ok := costs[b]; ok {
			return c
		}
		c := &BlockCost{Block: b}
		costs[b] = c
		return c
	}
	// Compute stalls need each sample's compute spans in start order; track
	// the previous compute end per sample as spans stream by in canonical
	// (per-sample, recorded) order.
	prevComputeEnd := map[int]int64{}
	sampleStart := map[int]int64{}
	for _, sp := range t.spans {
		if sp.Kind == SpanSample {
			sampleStart[sp.Sample] = sp.StartNS
			continue
		}
		if sp.Block < 0 {
			continue
		}
		c := get(sp.Block)
		c.Spans++
		switch sp.Kind {
		case SpanCompute:
			c.ComputeNS += sp.DurNS
			prev, ok := prevComputeEnd[sp.Sample]
			if !ok {
				prev = sampleStart[sp.Sample]
			}
			if stall := sp.StartNS - prev; stall > 0 {
				c.StallNS += stall
			}
			prevComputeEnd[sp.Sample] = sp.End()
		case SpanPrefetch:
			c.PrefetchNS += sp.DurNS
		case SpanEvict:
			c.EvictNS += sp.DurNS
		case SpanOnDemand:
			c.OnDemandNS += sp.DurNS
		case SpanRetry:
			c.RetryNS += sp.DurNS
		}
	}
	out := make([]BlockCost, 0, len(costs))
	for _, c := range costs {
		out = append(out, *c) //dynnlint:ignore determinism slice is sorted by block immediately below
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block < out[j].Block })
	return out
}

// occupancyShades maps a bucket's busy fraction to a glyph, light to solid.
var occupancyShades = []rune{' ', '░', '▒', '▓', '█'}

// ASCII renders a stream-occupancy timeline: one row per hardware lane,
// width buckets across the makespan, each glyph shaded by the lane's busy
// fraction in that bucket.
func (t *Timeline) ASCII(w io.Writer, width int) {
	if width <= 0 {
		width = 64
	}
	makespan := t.MakespanNS()
	if makespan == 0 {
		fmt.Fprintln(w, "(empty timeline)")
		return
	}
	fmt.Fprintf(w, "stream occupancy over %.3f ms simulated (each cell %.3f ms)\n",
		float64(makespan)/1e6, float64(makespan)/float64(width)/1e6)
	for _, lane := range []string{LaneCompute, LaneH2D, LaneD2H} {
		ivs := t.laneIntervals(lane)
		busy := make([]int64, width)
		bucket := float64(makespan) / float64(width)
		for _, iv := range ivs {
			lo := int(float64(iv.start) / bucket)
			hi := int(float64(iv.end-1) / bucket)
			for b := lo; b <= hi && b < width; b++ {
				bs, be := int64(float64(b)*bucket), int64(float64(b+1)*bucket)
				if o := min64(iv.end, be) - max64(iv.start, bs); o > 0 {
					busy[b] += o
				}
			}
		}
		row := make([]rune, width)
		for b, ns := range busy {
			frac := float64(ns) / bucket
			idx := int(frac * float64(len(occupancyShades)))
			if idx >= len(occupancyShades) {
				idx = len(occupancyShades) - 1
			}
			if ns > 0 && idx == 0 {
				idx = 1 // any occupancy is visible
			}
			row[b] = occupancyShades[idx]
		}
		util := float64(totalNS(ivs)) / float64(makespan) * 100
		fmt.Fprintf(w, "%-8s|%s| %5.1f%% busy\n", lane, string(row), util)
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
