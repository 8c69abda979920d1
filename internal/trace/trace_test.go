package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/tensor"
)

func buildIteration(t *testing.T) (*graph.Iteration, *tensor.Registry) {
	t.Helper()
	var reg tensor.Registry
	w := reg.New("w", tensor.Weight, tensor.F32, 8, 8)
	ws := graph.NewWeightState(&reg, w, true)
	x := reg.New("x", tensor.Input, tensor.F32, 2, 8)
	y := reg.New("y", tensor.Activation, tensor.F32, 2, 8)
	ops := []*graph.Op{graph.NewOp("matmul", 256, []*tensor.Meta{x, w}, []*tensor.Meta{y})}
	r := &graph.Resolved{ModelName: "t", Ops: ops}
	return graph.ExpandTraining(&reg, r, []*graph.WeightState{ws}, true), &reg
}

func TestFromIteration(t *testing.T) {
	it, _ := buildIteration(t)
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	tr := FromIteration("test", it, cm)

	wantOps := len(it.Forward) + len(it.Backward) + len(it.Optimizer)
	if len(tr.Records) != wantOps {
		t.Fatalf("records = %d, want %d", len(tr.Records), wantOps)
	}
	// Indexes are sequential and phases ordered fwd->bwd->opt.
	seenBackward, seenOpt := false, false
	for i, r := range tr.Records {
		if r.Index != i {
			t.Errorf("record %d has index %d", i, r.Index)
		}
		if r.TimeNS <= 0 {
			t.Errorf("record %d has non-positive time", i)
		}
		switch r.Phase {
		case Forward:
			if seenBackward || seenOpt {
				t.Error("forward after backward/optimizer")
			}
		case Backward:
			seenBackward = true
			if seenOpt {
				t.Error("backward after optimizer")
			}
		case Optimizer:
			seenOpt = true
		}
	}
	if !seenBackward || !seenOpt {
		t.Error("missing phases")
	}
	if tr.TotalTimeNS() <= 0 {
		t.Error("total time must be positive")
	}
	if tr.TotalBytes() <= 0 {
		t.Error("total bytes must be positive")
	}
}

func TestTensorLookups(t *testing.T) {
	it, _ := buildIteration(t)
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	tr := FromIteration("test", it, cm)

	kinds := tr.TensorKinds()
	if len(kinds) != len(tr.Tensors) {
		t.Fatal("lookup size mismatch")
	}
	var weights int
	for _, tt := range tr.Tensors {
		if kinds[tt.ID] == tensor.Weight {
			weights++
		}
	}
	if weights != 1 {
		t.Errorf("weights in trace = %d, want 1", weights)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	it, _ := buildIteration(t)
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	tr := FromIteration("roundtrip", it, cm)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != tr.Model || len(got.Records) != len(tr.Records) || len(got.Tensors) != len(tr.Tensors) {
		t.Fatal("roundtrip lost data")
	}
	for i := range tr.Records {
		if got.Records[i].Name != tr.Records[i].Name ||
			got.Records[i].TimeNS != tr.Records[i].TimeNS ||
			got.Records[i].Sig != tr.Records[i].Sig {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{garbage")); err == nil {
		t.Error("bad JSON must error")
	}
}

// ReadJSON parses a trace written by WriteJSON: the round-trip oracle for
// WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return &tr, nil
}
