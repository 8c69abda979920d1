package idiom

import (
	"testing"
	"testing/quick"
)

func TestAnalyzeEachIdiom(t *testing.T) {
	cases := []struct {
		name string
		k    Kernel
		want Idiom
	}{
		{"transpose", Kernel{LoopVars: []string{"i", "j"}, Stmts: []Stmt{
			{LHS: A("B", "i", "j"), RHS: []Access{A("A", "j", "i")}},
		}}, Transpose},
		{"gather", Kernel{LoopVars: []string{"i"}, Stmts: []Stmt{
			{LHS: A("B", "i"), RHS: []Access{AVia("A", "C", "i")}},
		}}, Gather},
		{"scatter", Kernel{LoopVars: []string{"i"}, Stmts: []Stmt{
			{LHS: AVia("B", "C", "i"), RHS: []Access{A("A", "i")}},
		}}, Scatter},
		{"reduction", Kernel{LoopVars: []string{"i"}, Stmts: []Stmt{
			{LHS: A("s"), Accum: true, RHS: []Access{A("A", "i")}},
		}}, Reduction},
		{"stream", Kernel{LoopVars: []string{"i"}, Stmts: []Stmt{
			{LHS: A("B", "i"), RHS: []Access{A("A", "i")}},
		}}, Stream},
		{"stencil", Kernel{LoopVars: []string{"i"}, Stmts: []Stmt{
			{LHS: A("B", "i"), RHS: []Access{AOff("A", Index{Var: "i", Offset: 1})}},
		}}, Stencil},
	}
	for _, c := range cases {
		counts := Analyze(c.k)
		if counts[c.want] != 1 {
			t.Errorf("%s: idiom %v count = %d, want 1 (counts %v)", c.name, c.want, counts[c.want], counts)
		}
	}
}

func TestAnalyzeMatmul(t *testing.T) {
	k, ok := Default.kernels["matmul"]
	if !ok {
		t.Fatal("matmul not registered")
	}
	counts := Analyze(k)
	if counts[Reduction] != 1 {
		t.Errorf("matmul reduction count = %d, want 1", counts[Reduction])
	}
	if counts[Gather] != 0 || counts[Scatter] != 0 {
		t.Errorf("matmul has spurious gather/scatter: %v", counts)
	}
}

func TestRegisteredSignatures(t *testing.T) {
	cases := map[string][6]float64{
		"add":            {0, 0, 0, 0, 1, 0},
		"transpose":      {1, 0, 0, 0, 0, 0},
		"embedding":      {0, 1, 0, 0, 0, 0},
		"embedding_grad": {0, 0, 1, 0, 0, 0},
		"sum":            {0, 0, 0, 1, 0, 0},
		"maxpool":        {0, 0, 0, 1, 0, 1},
		"softmax":        {0, 0, 0, 1, 1, 0},
		"layernorm":      {0, 0, 0, 2, 1, 0},
		"topk_gate":      {0, 1, 0, 1, 0, 0},
	}
	for name, want := range cases {
		sig := Default.MustSignature(name)
		got := [NumIdioms]float64(sig[:NumIdioms])
		if got != want {
			t.Errorf("%s counts = %v, want %v", name, got, want)
		}
	}
}

func TestAliasesShareSignatures(t *testing.T) {
	// ReLU and Sigmoid are intentionally indistinguishable (§IV-A2).
	relu := Default.MustSignature("relu")
	sigmoid := Default.MustSignature("sigmoid")
	if relu != sigmoid {
		t.Error("relu and sigmoid must share a signature")
	}
	// But they have distinct global IDs (Fig 11 representation).
	r, _ := Default.GlobalID("relu")
	s, _ := Default.GlobalID("sigmoid")
	if r == s {
		t.Error("aliases must have distinct global IDs")
	}
}

func TestRouterOpsConcentrate(t *testing.T) {
	for i, name := range RouterOpNames {
		sig := Default.MustSignature(name)
		counts := sig[:NumIdioms]
		for j, c := range counts {
			if j == i && c < 16 {
				t.Errorf("%s column %d = %v, want large", name, j, c)
			}
			if j != i && c != 0 {
				t.Errorf("%s leaks into column %d: %v", name, j, c)
			}
		}
	}
}

func TestWithDims(t *testing.T) {
	sig := Default.MustSignature("matmul").WithDims([]int{3, 4}, []int{4, 5})
	if sig[6] != 7 || sig[7] != 9 || sig[8] != 0 {
		t.Errorf("dims = %v %v %v, want 7 9 0", sig[6], sig[7], sig[8])
	}
	// 4-D input only counts the first three dims.
	sig = Default.MustSignature("conv2d").WithDims([]int{2, 3, 4, 5})
	if sig[6] != 2 || sig[7] != 3 || sig[8] != 4 {
		t.Errorf("conv dims wrong: %v", sig[6:9])
	}
}

func TestSignatureAdd(t *testing.T) {
	a := Signature{1, 0, 0, 0, 0, 0, 2, 0, 0}
	b := Signature{0, 1, 0, 0, 0, 0, 3, 0, 0}
	c := a.Add(b)
	if c[0] != 1 || c[1] != 1 || c[6] != 5 {
		t.Errorf("Add wrong: %v", c)
	}
}

func TestControlFlowRow(t *testing.T) {
	if ControlFlowRow != (Signature{}) {
		t.Error("ControlFlowRow must be all zero")
	}
	if Default.MustSignature("matmul") == (Signature{}) {
		t.Error("matmul must not look like control flow")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Register(Kernel{Name: "x", LoopVars: []string{"i"}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate registration")
		}
	}()
	r.Register(Kernel{Name: "x", LoopVars: []string{"i"}})
}

func TestRegistryUnknownOp(t *testing.T) {
	if _, ok := Default.Signature("no-such-op"); ok {
		t.Error("unknown op must not be found")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSignature must panic on unknown op")
		}
	}()
	Default.MustSignature("no-such-op")
}

func TestGlobalIDsDense(t *testing.T) {
	n := Default.NumOperators()
	seen := make([]bool, n)
	for _, name := range Default.ordered {
		id, ok := Default.GlobalID(name)
		if !ok || id < 0 || id >= n {
			t.Fatalf("bad global ID for %s: %d", name, id)
		}
		if seen[id] {
			t.Fatalf("duplicate global ID %d", id)
		}
		seen[id] = true
	}
}

func TestAnalyzeCountsNonNegative(t *testing.T) {
	f := func(accum bool, off int8) bool {
		k := Kernel{LoopVars: []string{"i", "j"}, Stmts: []Stmt{{
			LHS:   A("B", "i", "j"),
			Accum: accum,
			RHS:   []Access{AOff("A", Index{Var: "i", Offset: int(off % 3)}, Index{Var: "j"})},
		}}}
		for _, c := range Analyze(k) {
			if c < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
