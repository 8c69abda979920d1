package graph

import (
	"math"
	"testing"
	"testing/quick"

	"dynnoffload/internal/idiom"
	"dynnoffload/internal/tensor"
)

// miniArch builds a small static architecture: op A, branch(2 arms of 1/2
// ops), repeat(1..3 of one op), op Z.
func miniArch(t *testing.T) (*Static, *tensor.Registry) {
	t.Helper()
	var reg tensor.Registry
	mk := func(name string) *Op {
		in := reg.New(name+".in", tensor.Activation, tensor.F32, 4, 4)
		out := reg.New(name+".out", tensor.Activation, tensor.F32, 4, 4)
		return NewOp("add", 16, []*tensor.Meta{in}, []*tensor.Meta{out})
	}
	s := &Static{
		ModelName: "mini",
		NumSites:  2,
		Elems: []Elem{
			OpElem{Op: mk("a")},
			Branch{Site: 0, Arms: [][]Elem{
				{OpElem{Op: mk("b0")}},
				{OpElem{Op: mk("b1")}, OpElem{Op: mk("b2")}},
			}},
			Repeat{Site: 1, Body: []Elem{OpElem{Op: mk("r")}}, Min: 1, Max: 3},
			OpElem{Op: mk("z")},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return s, &reg
}

func TestResolveCounts(t *testing.T) {
	s, _ := miniArch(t)
	cases := []struct {
		decisions []int
		wantOps   int
	}{
		{[]int{0, 0}, 1 + 1 + 1 + 1}, // arm0 (1 op), repeat x1
		{[]int{1, 0}, 1 + 2 + 1 + 1},
		{[]int{0, 2}, 1 + 1 + 3 + 1}, // repeat x3
		{[]int{1, 2}, 1 + 2 + 3 + 1},
	}
	for _, c := range cases {
		r, err := Resolve(s, c.decisions)
		if err != nil {
			t.Fatalf("Resolve(%v): %v", c.decisions, err)
		}
		if len(r.Ops) != c.wantOps {
			t.Errorf("Resolve(%v) = %d ops, want %d", c.decisions, len(r.Ops), c.wantOps)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	s, _ := miniArch(t)
	if _, err := Resolve(s, []int{0}); err == nil {
		t.Error("wrong decision count must error")
	}
	if _, err := Resolve(s, []int{5, 0}); err == nil {
		t.Error("out-of-range branch decision must error")
	}
	if _, err := Resolve(s, []int{0, 9}); err == nil {
		t.Error("out-of-range repeat decision must error")
	}
}

func TestDecisionRange(t *testing.T) {
	s, _ := miniArch(t)
	r := s.DecisionRange()
	if r[0] != 2 || r[1] != 3 {
		t.Errorf("DecisionRange = %v, want [2 3]", r)
	}
}

func TestOpCountProgramOrder(t *testing.T) {
	s, _ := miniArch(t)
	// a + (b0 + b1 + b2) + r + z = 6 (all arms counted once, repeat once)
	if got := s.OpCount(); got != 6 {
		t.Errorf("OpCount = %d, want 6", got)
	}
}

func TestValidateCatchesBadSites(t *testing.T) {
	var reg tensor.Registry
	in := reg.New("i", tensor.Activation, tensor.F32, 1)
	op := NewOp("add", 1, []*tensor.Meta{in}, []*tensor.Meta{in})
	bad := &Static{ModelName: "bad", NumSites: 1, Elems: []Elem{
		Branch{Site: 3, Arms: [][]Elem{{OpElem{Op: op}}, {OpElem{Op: op}}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range site must fail validation")
	}
	missing := &Static{ModelName: "missing", NumSites: 2, Elems: []Elem{
		Branch{Site: 0, Arms: [][]Elem{{OpElem{Op: op}}, {OpElem{Op: op}}}},
	}}
	if err := missing.Validate(); err == nil {
		t.Error("missing site must fail validation")
	}
	oneArm := &Static{ModelName: "onearm", NumSites: 1, Elems: []Elem{
		Branch{Site: 0, Arms: [][]Elem{{OpElem{Op: op}}}},
	}}
	if err := oneArm.Validate(); err == nil {
		t.Error("single-arm branch must fail validation")
	}
}

func TestAFMLayout(t *testing.T) {
	s, _ := miniArch(t)
	afm := BuildAFM(s)
	// rows: a, ctrl(branch), b0, b1, b2, ctrl(repeat), r, z = 8
	if len(afm.Rows) != 8 {
		t.Fatalf("AFM rows = %d, want 8", len(afm.Rows))
	}
	ctrl := controlRows(afm)
	if len(ctrl) != 2 || ctrl[0] != 1 || ctrl[1] != 5 {
		t.Errorf("control rows = %v, want [1 5]", ctrl)
	}
	for _, row := range afm.Rows {
		if len(row) != idiom.SigLen {
			t.Fatalf("row width %d", len(row))
		}
	}
}

func TestAFMPooledFeatures(t *testing.T) {
	s, _ := miniArch(t)
	afm := BuildAFM(s)
	feats := afm.PooledFeatures(4)
	if len(feats) != 4*idiom.SigLen {
		t.Fatalf("pooled width %d", len(feats))
	}
	// Sum over segments equals sum over rows.
	var fromFeats, fromRows float64
	for _, v := range feats {
		fromFeats += v
	}
	for _, row := range afm.Rows {
		for _, v := range row {
			fromRows += v
		}
	}
	if fromFeats != fromRows {
		t.Errorf("pooling lost mass: %v vs %v", fromFeats, fromRows)
	}
}

func TestGlobalIDAFM(t *testing.T) {
	s, _ := miniArch(t)
	g := BuildGlobalIDAFM(s)
	if len(g.IDs) != 8 {
		t.Fatalf("global-ID rows = %d, want 8", len(g.IDs))
	}
	vocab := idiom.Default.NumOperators()
	feats := g.PooledFeatures(2, vocab)
	if len(feats) != 2*vocab {
		t.Fatalf("feature width %d", len(feats))
	}
	var total float64
	for _, v := range feats {
		total += v
	}
	if total != 6 { // six op occurrences
		t.Errorf("one-hot mass = %v, want 6", total)
	}
}

func TestEnumeratePaths(t *testing.T) {
	s, _ := miniArch(t)
	paths, err := EnumeratePaths(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2*3 {
		t.Fatalf("paths = %d, want 6", len(paths))
	}
	// Each path's stats must match a direct resolve.
	for _, p := range paths {
		r, err := Resolve(s, p.Decisions)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats().OpCount != p.Stats.OpCount {
			t.Errorf("path stats mismatch for %v", p.Decisions)
		}
	}
}

func TestControlBits(t *testing.T) {
	s, _ := miniArch(t)
	r, _ := Resolve(s, []int{1, 2})
	bits := r.ControlBits(s)
	if !bits[0] {
		t.Error("arm 1 of 2 must set the bit")
	}
	if !bits[1] {
		t.Error("repeat decision 2 of [0..2] must set the bit")
	}
	r0, _ := Resolve(s, []int{0, 0})
	bits0 := r0.ControlBits(s)
	if bits0[0] || bits0[1] {
		t.Error("default decisions must clear bits")
	}
}

func TestExpandTraining(t *testing.T) {
	var reg tensor.Registry
	w := reg.New("w", tensor.Weight, tensor.F32, 4, 4)
	ws := NewWeightState(&reg, w, true)
	x := reg.New("x", tensor.Input, tensor.F32, 2, 4)
	y := reg.New("y", tensor.Activation, tensor.F32, 2, 4)
	z := reg.New("z", tensor.Activation, tensor.F32, 2, 4)
	ops := []*Op{
		NewOp("matmul", 64, []*tensor.Meta{x, w}, []*tensor.Meta{y}),
		NewOp("relu", 8, []*tensor.Meta{y}, []*tensor.Meta{z}),
	}
	r := &Resolved{ModelName: "t", Ops: ops}
	it := ExpandTraining(&reg, r, []*WeightState{ws}, true)

	if len(it.Forward) != 2 {
		t.Fatalf("forward ops = %d", len(it.Forward))
	}
	if len(it.Backward) != 2 {
		t.Fatalf("backward ops = %d, want 2", len(it.Backward))
	}
	if len(it.Optimizer) != 1 {
		t.Fatalf("optimizer ops = %d, want 1", len(it.Optimizer))
	}
	// Backward order mirrors forward (relu's grad first).
	if it.Backward[0].Name != "elementwise_grad" {
		t.Errorf("first backward op = %s", it.Backward[0].Name)
	}
	if it.Backward[1].Name != "matmul_grad_a" {
		t.Errorf("second backward op = %s", it.Backward[1].Name)
	}
	// Backward FLOPs are 2x forward.
	if it.Backward[1].FLOPs != 128 {
		t.Errorf("backward flops = %d, want 128", it.Backward[1].FLOPs)
	}
	// The matmul's grad op must write into the shared weight gradient.
	found := false
	for _, out := range it.Backward[1].Outputs {
		if out.ID == ws.Grad.ID {
			found = true
		}
	}
	if !found {
		t.Error("weight gradient not produced by backward")
	}
	// Optimizer consumes weight, grad, and both moments.
	if len(it.Optimizer[0].Inputs) != 4 {
		t.Errorf("adam inputs = %d, want 4", len(it.Optimizer[0].Inputs))
	}
	if it.Optimizer[0].Name != "adam_update" {
		t.Errorf("optimizer op = %s", it.Optimizer[0].Name)
	}
}

func TestWeightStateBytes(t *testing.T) {
	var reg tensor.Registry
	w := reg.New("w", tensor.Weight, tensor.F32, 10) // 40 B
	adam := NewWeightState(&reg, w, true)
	if adam.Bytes() != 160 { // w + grad + m + v
		t.Errorf("adam state bytes = %d, want 160", adam.Bytes())
	}
	sgd := NewWeightState(&reg, w, false)
	if sgd.Bytes() != 80 {
		t.Errorf("sgd state bytes = %d, want 80", sgd.Bytes())
	}
}

func TestOpBytesDeduplicated(t *testing.T) {
	var reg tensor.Registry
	y := reg.New("y", tensor.Activation, tensor.F32, 8) // 32 B
	op := NewOp("relu", 8, []*tensor.Meta{y}, []*tensor.Meta{y})
	if op.Bytes() != 32 {
		t.Errorf("in-place op bytes = %d, want 32", op.Bytes())
	}
}

func TestStatsDistanceProperties(t *testing.T) {
	f := func(a, b uint16) bool {
		s1 := Stats{OpCount: int(a)}
		s2 := Stats{OpCount: int(b)}
		d12 := StatsDistance(s1, s2)
		d21 := StatsDistance(s2, s1)
		return d12 == d21 && d12 >= 0 && StatsDistance(s1, s1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResolveDeterministic(t *testing.T) {
	s, _ := miniArch(t)
	f := func(d0raw, d1raw uint8) bool {
		d := []int{int(d0raw % 2), int(d1raw % 3)}
		r1, err1 := Resolve(s, d)
		r2, err2 := Resolve(s, d)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(r1.Ops) != len(r2.Ops) {
			return false
		}
		for i := range r1.Ops {
			if r1.Ops[i] != r2.Ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// OpCount returns the number of operator occurrences in program order (every
// branch arm counted, repeats counted once), i.e. the number of non-dummy
// AFM rows.
func (s *Static) OpCount() int {
	n := 0
	var walk func(elems []Elem)
	walk = func(elems []Elem) {
		for _, e := range elems {
			switch v := e.(type) {
			case OpElem:
				n++
			case Branch:
				for _, arm := range v.Arms {
					walk(arm)
				}
			case Repeat:
				walk(v.Body)
			}
		}
	}
	walk(s.Elems)
	return n
}

// controlRows returns the indices of the AFM's dummy (control-flow) rows.
func controlRows(a *AFM) []int {
	var out []int
	for i, row := range a.Rows {
		zero := true
		for _, v := range row {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			out = append(out, i)
		}
	}
	return out
}

// StatsDistance is the summed relative error over operator count and the
// nine signature aggregates.
func StatsDistance(a, b Stats) float64 {
	d := relErr(float64(a.OpCount), float64(b.OpCount))
	for i := range a.Sig {
		d += relErr(a.Sig[i], b.Sig[i])
	}
	return d
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}
