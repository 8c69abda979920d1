// Package trace records dynamic execution traces of resolved DyNN graphs:
// operator order, names, idiom signatures, tensor references, and simulated
// execution times. Traces are what the paper's offline training system feeds
// to the Sentinel partitioner to produce pilot-model labels (§V: "execution
// trace generator ... in a Json-formatted file").
package trace

import (
	"encoding/json"
	"io"

	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/idiom"
	"dynnoffload/internal/tensor"
)

// Phase labels which part of the training iteration an operator belongs to.
type Phase string

const (
	Forward   Phase = "forward"
	Backward  Phase = "backward"
	Optimizer Phase = "optimizer"
)

// OpRecord is one executed operator.
type OpRecord struct {
	Index   int             `json:"index"`
	Name    string          `json:"name"`
	Phase   Phase           `json:"phase"`
	Sig     idiom.Signature `json:"sig"`
	FLOPs   int64           `json:"flops"`
	Bytes   int64           `json:"bytes"`
	TimeNS  int64           `json:"time_ns"`
	Inputs  []int64         `json:"inputs"`
	Outputs []int64         `json:"outputs"`
}

// TensorRecord describes one tensor referenced by the trace.
type TensorRecord struct {
	ID    int64       `json:"id"`
	Name  string      `json:"name"`
	Kind  tensor.Kind `json:"kind"`
	Bytes int64       `json:"bytes"`
}

// Trace is a full dynamic execution trace of one training iteration.
type Trace struct {
	Model   string         `json:"model"`
	Records []OpRecord     `json:"records"`
	Tensors []TensorRecord `json:"tensors"`
}

// FromIteration profiles a training iteration under the given cost model.
func FromIteration(model string, it *graph.Iteration, cm gpusim.CostModel) *Trace {
	tr := &Trace{Model: model}
	seen := map[int64]bool{}
	record := func(op *graph.Op, phase Phase, idx int) OpRecord {
		r := OpRecord{
			Index: idx, Name: op.Name, Phase: phase, Sig: op.Sig,
			FLOPs: op.FLOPs, Bytes: op.Bytes(), TimeNS: cm.OpTime(op),
		}
		for _, t := range op.Inputs {
			r.Inputs = append(r.Inputs, t.ID)
			tr.addTensor(t, seen)
		}
		for _, t := range op.Outputs {
			r.Outputs = append(r.Outputs, t.ID)
			tr.addTensor(t, seen)
		}
		return r
	}
	idx := 0
	for _, op := range it.Forward {
		tr.Records = append(tr.Records, record(op, Forward, idx))
		idx++
	}
	for _, op := range it.Backward {
		tr.Records = append(tr.Records, record(op, Backward, idx))
		idx++
	}
	for _, op := range it.Optimizer {
		tr.Records = append(tr.Records, record(op, Optimizer, idx))
		idx++
	}
	return tr
}

func (tr *Trace) addTensor(t *tensor.Meta, seen map[int64]bool) {
	if seen[t.ID] {
		return
	}
	seen[t.ID] = true
	tr.Tensors = append(tr.Tensors, TensorRecord{ID: t.ID, Name: t.Name, Kind: t.Kind, Bytes: t.Bytes()})
}

// TotalTimeNS sums per-operator times (pure compute, no migration).
func (tr *Trace) TotalTimeNS() int64 {
	var t int64
	for _, r := range tr.Records {
		t += r.TimeNS
	}
	return t
}

// TotalBytes sums distinct tensor sizes.
func (tr *Trace) TotalBytes() int64 {
	var b int64
	for _, t := range tr.Tensors {
		b += t.Bytes
	}
	return b
}

// WriteJSON serializes the trace.
func (tr *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tr)
}

// TensorKinds returns a lookup of tensor ID to kind.
func (tr *Trace) TensorKinds() map[int64]tensor.Kind {
	m := make(map[int64]tensor.Kind, len(tr.Tensors))
	for _, t := range tr.Tensors {
		m[t.ID] = t.Kind
	}
	return m
}
