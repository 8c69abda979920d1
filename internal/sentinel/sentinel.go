// Package sentinel implements the offline dataflow-graph partitioner the
// paper adopts from Sentinel [57] (§IV-D "Labeling"): given an execution
// trace, GPU memory capacity, and the interconnect cost model, it partitions
// the training iteration into execution blocks that maximize the overlap
// between tensor migration and computation without exceeding the
// double-buffer budget. Block descriptors in the pilot model's ten-element
// output format are derived here, so this package is both the label
// generator for pilot training and the block analyzer the runtime shares.
package sentinel

import (
	"fmt"
	"sort"

	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/tensor"
	"dynnoffload/internal/trace"
)

// Block is a half-open operator index range [Start, End) of one execution
// block.
type Block struct {
	Start, End int
}

// Len returns the number of operators in the block.
func (b Block) Len() int { return b.End - b.Start }

// DescriptorLen is the pilot-model output row width (§IV-B): operator count,
// six idiom sums, three input/output dimension sums.
const DescriptorLen = 10

// Analysis precomputes per-operator tensor liveness and timing over one
// training iteration's trace, supporting block cost queries in O(block size).
//
// NewAnalysis renumbers the trace's tensors once into dense local indices
// (Trace.Tensors order, then first reference for any tensor the table
// lacks), so every block query is slice arithmetic with no map traffic and
// no per-query state: an Analysis is immutable after construction and safe
// for concurrent readers.
type Analysis struct {
	Trace *trace.Trace
	CM    gpusim.CostModel

	ids   []int64         // local index -> tensor ID
	index map[int64]int32 // tensor ID -> local index, for the by-ID queries

	// refs holds every record's tensor references as local indices, in
	// record order: record i's inputs are refs[recStart[i]:recOut[i]] and
	// its outputs refs[recOut[i]:recStart[i+1]]. A block's references are
	// thus the one run refs[recStart[b.Start]:recStart[b.End]].
	refs     []int32
	recStart []int32
	recOut   []int32
	// prevRef[s] is the slot of the previous reference to refs[s]'s tensor
	// (-1 if none); prevOut[s], for an output slot, is the slot of the
	// tensor's previous output reference. A slot is a block's first
	// reference (first output reference) to its tensor exactly when that
	// predecessor lies before the block's first slot, which dedups a block
	// query without a seen-set.
	prevRef []int32
	prevOut []int32

	bytesOf    []int64
	firstUse   []int32 // op index of first reference (-1 if never)
	lastUse    []int32 // op index of last reference (-1 if never)
	producer   []int32 // op index of first production (-1 if none)
	persistent []bool  // see PersistentBytes
	timePfx    []int64 // prefix sums of op times

	// Iteration-level aggregates are pure functions of the trace; they are
	// computed once here because the runtime consults them on every sample
	// (capacity checks, the fits-GPU fast path) and a per-sample liveness
	// walk would dominate the simulation itself.
	peakResident int64
	maxSingleOp  int64
	totalBytes   int64
}

// NewAnalysis builds the liveness/timing index for a trace.
func NewAnalysis(tr *trace.Trace, cm gpusim.CostModel) *Analysis {
	a := &Analysis{
		Trace:    tr,
		CM:       cm,
		index:    make(map[int64]int32, len(tr.Tensors)),
		recStart: make([]int32, len(tr.Records)+1),
		recOut:   make([]int32, len(tr.Records)),
		timePfx:  make([]int64, len(tr.Records)+1),
	}
	// Number the table's tensors, then any a record names that the table
	// lacks, and lay the references out record by record.
	for _, t := range tr.Tensors {
		a.local(t.ID)
	}
	for i := range tr.Records {
		r := &tr.Records[i]
		a.timePfx[i+1] = a.timePfx[i] + r.TimeNS
		a.recStart[i] = int32(len(a.refs))
		for _, id := range r.Inputs {
			a.refs = append(a.refs, a.local(id))
		}
		a.recOut[i] = int32(len(a.refs))
		for _, id := range r.Outputs {
			a.refs = append(a.refs, a.local(id))
		}
	}
	a.recStart[len(tr.Records)] = int32(len(a.refs))

	n := len(a.ids)
	a.bytesOf = make([]int64, n)
	a.persistent = make([]bool, n)
	kinds := make([]tensor.Kind, n)
	// A duplicated table entry takes the last entry's size and kind, as
	// ID-keyed lookups over the table would.
	for _, t := range tr.Tensors {
		x := a.index[t.ID]
		a.bytesOf[x], kinds[x] = t.Bytes, t.Kind
		switch t.Kind {
		case tensor.Weight, tensor.OptState, tensor.Constant:
			a.persistent[x] = true
		}
	}
	a.firstUse, a.lastUse, a.producer = filled(n), filled(n), filled(n)
	a.prevRef, a.prevOut = make([]int32, len(a.refs)), make([]int32, len(a.refs))
	lastRef, lastOut := filled(n), filled(n)
	for i := range tr.Records {
		for s := a.recStart[i]; s < a.recStart[i+1]; s++ {
			x := a.refs[s]
			a.prevRef[s], lastRef[x] = lastRef[x], s
			if a.firstUse[x] < 0 {
				a.firstUse[x] = int32(i)
			}
			a.lastUse[x] = int32(i)
			if s >= a.recOut[i] {
				a.prevOut[s], lastOut[x] = lastOut[x], s
				if a.producer[x] < 0 {
					a.producer[x] = int32(i)
				}
			} else if tr.Records[i].Phase == trace.Optimizer && kinds[x] == tensor.Gradient {
				a.persistent[x] = true // a weight gradient the optimizer consumes
			}
		}
	}
	a.peakResident = a.computePeakResidentBytes()
	a.maxSingleOp = a.computeMaxSingleOpBytes()
	a.totalBytes = tr.TotalBytes()
	return a
}

// local returns a tensor's dense index, assigning the next one on first
// sight.
func (a *Analysis) local(id int64) int32 {
	x, ok := a.index[id]
	if !ok {
		x = int32(len(a.ids))
		a.index[id] = x
		a.ids = append(a.ids, id)
	}
	return x
}

// filled returns n int32s set to -1.
func filled(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// TotalBytes returns the trace's distinct tensor footprint, precomputed at
// construction (the runtime's capacity check reads it per sample).
func (a *Analysis) TotalBytes() int64 { return a.totalBytes }

// NumOps returns the trace length.
func (a *Analysis) NumOps() int { return len(a.Trace.Records) }

// ComputeNS returns the summed compute time of a block.
func (a *Analysis) ComputeNS(b Block) int64 {
	return a.timePfx[b.End] - a.timePfx[b.Start]
}

// TotalComputeNS returns the pure compute time of the whole iteration.
func (a *Analysis) TotalComputeNS() int64 { return a.timePfx[len(a.timePfx)-1] }

// slots returns the block's run of reference slots, [lo, hi).
func (a *Analysis) slots(b Block) (lo, hi int32) {
	return a.recStart[b.Start], a.recStart[b.End]
}

// forEachTensor visits each distinct tensor referenced in the block once, by
// local index, in first-reference order.
func (a *Analysis) forEachTensor(b Block, fn func(x int32)) {
	lo, hi := a.slots(b)
	for s := lo; s < hi; s++ {
		if a.prevRef[s] < lo {
			fn(a.refs[s])
		}
	}
}

// WorkingBytes returns the distinct tensor bytes a block touches — what must
// fit in the double-buffer budget while the block runs.
func (a *Analysis) WorkingBytes(b Block) int64 {
	var total int64
	a.forEachTensor(b, func(x int32) { total += a.bytesOf[x] })
	return total
}

// FetchBytes returns the bytes that must be prefetched from CPU memory
// before the block runs: distinct tensors read by the block that are neither
// produced inside it before their use nor produced in the immediately
// preceding block (whose buffer is still on the GPU).
func (a *Analysis) FetchBytes(b, prev Block) int64 {
	var total int64
	a.forEachTensor(b, func(x int32) {
		p := int(a.producer[x])
		if p >= 0 && p >= prev.Start && p < b.End && p <= int(a.firstUse[x]) {
			return // materialized on-GPU in this or the previous block
		}
		total += a.bytesOf[x]
	})
	return total
}

// EvictBytes returns the write-back bytes when a block's buffer is retired:
// tensors the block produced or modified that are still needed at or after
// op index `after`.
func (a *Analysis) EvictBytes(b Block, after int) int64 {
	lo, _ := a.slots(b)
	var total int64
	for i := b.Start; i < b.End; i++ {
		for s := a.recOut[i]; s < a.recStart[i+1]; s++ {
			if x := a.refs[s]; a.prevOut[s] < lo && int(a.lastUse[x]) >= after {
				total += a.bytesOf[x]
			}
		}
	}
	return total
}

// Descriptor builds the ten-element execution-block vector of §IV-B.
func (a *Analysis) Descriptor(b Block) [DescriptorLen]float64 {
	var d [DescriptorLen]float64
	d[0] = float64(b.Len())
	for i := b.Start; i < b.End; i++ {
		sig := a.Trace.Records[i].Sig
		for k := 0; k < 6; k++ {
			d[1+k] += sig[k]
		}
		for k := 0; k < 3; k++ {
			d[7+k] += sig[6+k]
		}
	}
	return d
}

// Validate checks that blocks tile [0, NumOps) contiguously.
func Validate(blocks []Block, numOps int) error {
	if len(blocks) == 0 {
		return fmt.Errorf("sentinel: empty partition")
	}
	if blocks[0].Start != 0 || blocks[len(blocks)-1].End != numOps {
		return fmt.Errorf("sentinel: partition does not cover [0,%d)", numOps)
	}
	for i, b := range blocks {
		if b.Len() <= 0 {
			return fmt.Errorf("sentinel: block %d empty", i)
		}
		if i > 0 && blocks[i-1].End != b.Start {
			return fmt.Errorf("sentinel: gap before block %d", i)
		}
	}
	return nil
}

// PersistentBytes returns the bytes of tensors that live across iterations
// on an unmodified framework: weights, optimizer state, constants, and
// weight-gradient buffers (PyTorch keeps gradient buffers allocated between
// iterations). These are resident at every point of the iteration.
func (a *Analysis) PersistentBytes() int64 {
	var total int64
	for x, p := range a.persistent {
		if p {
			total += a.bytesOf[x]
		}
	}
	return total
}

// PeakResidentBytes returns the liveness-based peak memory of running the
// whole iteration on an infinite-capacity device: persistent state (weights,
// optimizer moments, weight-gradient buffers) is always resident; every
// other tensor is resident from its first to its last reference. This is the
// "unmodified PyTorch" footprint a GPU must hold. The value is precomputed at
// construction, so the call is free on the per-sample path.
func (a *Analysis) PeakResidentBytes() int64 { return a.peakResident }

func (a *Analysis) computePeakResidentBytes() int64 {
	n := a.NumOps()
	allocAt := make([]int64, n)   // bytes first referenced at op i
	freeAfter := make([]int64, n) // bytes last referenced at op i
	for x, first := range a.firstUse {
		if !a.persistent[x] && first >= 0 {
			allocAt[first] += a.bytesOf[x]
			freeAfter[a.lastUse[x]] += a.bytesOf[x]
		}
	}
	var cur, peak int64
	for i := 0; i < n; i++ {
		cur += allocAt[i]
		if cur > peak {
			peak = cur
		}
		cur -= freeAfter[i]
	}
	return a.PersistentBytes() + peak
}

// MaxSingleOpBytes returns the largest single-operator working set — the
// floor below which no double-buffer budget is feasible. Precomputed at
// construction (the runtime checks it per sample).
func (a *Analysis) MaxSingleOpBytes() int64 { return a.maxSingleOp }

func (a *Analysis) computeMaxSingleOpBytes() int64 {
	var m int64
	for i := 0; i < a.NumOps(); i++ {
		if w := a.WorkingBytes(Block{Start: i, End: i + 1}); w > m {
			m = w
		}
	}
	return m
}

// BytesOf returns a tensor's size.
func (a *Analysis) BytesOf(id int64) int64 {
	if x, ok := a.index[id]; ok {
		return a.bytesOf[x]
	}
	return 0
}

// LastUse returns the op index of a tensor's final reference (-1 if never).
func (a *Analysis) LastUse(id int64) int {
	if x, ok := a.index[id]; ok {
		return int(a.lastUse[x])
	}
	return -1
}

// Producer returns the op index that first writes a tensor, or -1 for a
// tensor no operator writes (inputs, optimizer state, constants). A weight
// the optimizer updates in place reports that optimizer step.
func (a *Analysis) Producer(id int64) int {
	if x, ok := a.index[id]; ok {
		return int(a.producer[x])
	}
	return -1
}

// PersistentIDs lists cross-iteration tensors (weights, optimizer state,
// constants, weight-gradient buffers) in ascending ID order — see
// PersistentBytes.
func (a *Analysis) PersistentIDs() []int64 {
	out := []int64{}
	for x, p := range a.persistent {
		if p {
			out = append(out, a.ids[x])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
