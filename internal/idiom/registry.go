package idiom

import (
	"fmt"
	"sync"
)

// Registry maps operator names to their kernel descriptions and (computed)
// idiom signatures. The paper observes that all ~300 common PyTorch operators
// decompose into the six idioms; here we register the operator set the model
// zoo emits, including aliases that share kernels (e.g. relu/sigmoid/tanh are
// all stream idioms and intentionally indistinguishable in the AFM, §IV-A2).
type Registry struct {
	mu      sync.RWMutex
	kernels map[string]Kernel
	sigs    map[string]Signature
	ids     map[string]int // global-ID representation for Fig 11
	ordered []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kernels: map[string]Kernel{},
		sigs:    map[string]Signature{},
		ids:     map[string]int{},
	}
}

// Register analyzes the kernel and stores its signature under k.Name.
// Registering the same name twice panics: operator identity must be stable.
func (r *Registry) Register(k Kernel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.kernels[k.Name]; dup {
		panic(fmt.Sprintf("idiom: duplicate operator %q", k.Name)) //dynnlint:ignore panicfree duplicate registration is a programmer error surfaced at package init
	}
	counts := Analyze(k)
	var sig Signature
	for i, c := range counts {
		sig[i] = float64(c)
	}
	r.kernels[k.Name] = k
	r.sigs[k.Name] = sig
	r.ids[k.Name] = len(r.ordered)
	r.ordered = append(r.ordered, k.Name)
}

// Alias registers name with the same kernel as existing. Aliases receive
// their own global ID (they are distinct operators under the global-ID
// representation of Fig 11) but identical idiom signatures.
func (r *Registry) Alias(name, existing string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k, ok := r.kernels[existing]
	if !ok {
		panic(fmt.Sprintf("idiom: alias target %q not registered", existing)) //dynnlint:ignore panicfree bad alias target is a programmer error surfaced at package init
	}
	if _, dup := r.kernels[name]; dup {
		panic(fmt.Sprintf("idiom: duplicate operator %q", name)) //dynnlint:ignore panicfree duplicate registration is a programmer error surfaced at package init
	}
	r.kernels[name] = k
	r.sigs[name] = r.sigs[existing]
	r.ids[name] = len(r.ordered)
	r.ordered = append(r.ordered, name)
}

// Signature returns the nine-element signature of an operator (dimension
// elements zero; fill with Signature.WithDims at graph-build time).
func (r *Registry) Signature(name string) (Signature, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sigs[name]
	return s, ok
}

// MustSignature is Signature but panics on unknown operators.
func (r *Registry) MustSignature(name string) Signature {
	s, ok := r.Signature(name)
	if !ok {
		panic(fmt.Sprintf("idiom: unknown operator %q", name))
	}
	return s
}

// GlobalID returns the unique integer ID of an operator, used by the
// global-ID baseline representation (Fig 11).
func (r *Registry) GlobalID(name string) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.ids[name]
	return id, ok
}

// NumOperators returns the number of registered operator names.
func (r *Registry) NumOperators() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ordered)
}

// Default is the global registry pre-populated with the operator set used by
// the model zoo.
var Default = NewRegistry()

func init() {
	reg := Default

	// --- dense linear algebra ---
	// matmul: C[i][j] += A[i][k] * B[k][j] — stream multiply feeding a
	// k-contraction (reduction).
	reg.Register(Kernel{
		Name:     "matmul",
		LoopVars: []string{"i", "j", "k"},
		Stmts: []Stmt{
			{LHS: A("C", "i", "j"), Accum: true, RHS: []Access{A("A", "i", "k"), A("B", "k", "j")}},
		},
	})
	reg.Alias("linear", "matmul")
	reg.Alias("matmul_grad_a", "matmul")
	reg.Alias("matmul_grad_b", "matmul")
	reg.Alias("attention_scores", "matmul")
	reg.Alias("attention_context", "matmul")

	// transpose: B[i][j] = A[j][i]
	reg.Register(Kernel{
		Name:     "transpose",
		LoopVars: []string{"i", "j"},
		Stmts: []Stmt{
			{LHS: A("B", "i", "j"), RHS: []Access{A("A", "j", "i")}},
		},
	})
	reg.Alias("permute", "transpose")

	// --- element-wise (stream) ---
	reg.Register(Kernel{
		Name:     "add",
		LoopVars: []string{"i", "j"},
		Stmts: []Stmt{
			{LHS: A("C", "i", "j"), RHS: []Access{A("A", "i", "j"), A("B", "i", "j")}},
		},
	})
	for _, alias := range []string{"mul", "bias_add", "relu", "sigmoid", "tanh",
		"leakyrelu", "gelu", "dropout", "scale", "residual_add", "mask",
		"elementwise_grad", "gate_mul", "copy", "cast"} {
		reg.Alias(alias, "add")
	}

	// --- reductions ---
	// sum: s[i] += A[i][j]
	reg.Register(Kernel{
		Name:     "sum",
		LoopVars: []string{"i", "j"},
		Stmts: []Stmt{
			{LHS: A("S", "i"), Accum: true, RHS: []Access{A("A", "i", "j")}},
		},
	})
	for _, alias := range []string{"mean", "max_reduce", "norm_stats", "mse_loss",
		"cross_entropy", "argmax"} {
		reg.Alias(alias, "sum")
	}

	// softmax: reduce then stream-normalize.
	reg.Register(Kernel{
		Name:     "softmax",
		LoopVars: []string{"i", "j"},
		Stmts: []Stmt{
			{LHS: A("M", "i"), Accum: true, RHS: []Access{A("A", "i", "j")}},
			{LHS: A("B", "i", "j"), RHS: []Access{A("A", "i", "j"), A("M", "i")}},
		},
	})
	reg.Alias("attention_softmax", "softmax")
	reg.Alias("softmax_grad", "softmax")

	// layernorm: stats reduction + stream normalization.
	reg.Register(Kernel{
		Name:     "layernorm",
		LoopVars: []string{"i", "j"},
		Stmts: []Stmt{
			{LHS: A("Mu", "i"), Accum: true, RHS: []Access{A("A", "i", "j")}},
			{LHS: A("Var", "i"), Accum: true, RHS: []Access{A("A", "i", "j")}},
			{LHS: A("B", "i", "j"), RHS: []Access{A("A", "i", "j"), A("Mu", "i")}},
		},
	})
	reg.Alias("batchnorm", "layernorm")
	reg.Alias("layernorm_grad", "layernorm")

	// --- gather / scatter ---
	// embedding lookup: E[i][j] = W[T[i]][j]
	reg.Register(Kernel{
		Name:     "embedding",
		LoopVars: []string{"i", "j"},
		Stmts: []Stmt{
			{LHS: A("E", "i", "j"), RHS: []Access{AVia("W", "T", "i", "j")}},
		},
	})
	reg.Alias("gather_rows", "embedding")
	reg.Alias("expert_combine", "embedding")
	reg.Alias("index_select", "embedding")

	// embedding gradient: W[T[i]][j] += G[i][j]
	reg.Register(Kernel{
		Name:     "embedding_grad",
		LoopVars: []string{"i", "j"},
		Stmts: []Stmt{
			{LHS: AVia("W", "T", "i", "j"), Accum: true, RHS: []Access{A("G", "i", "j")}},
		},
	})
	reg.Alias("scatter_add", "embedding_grad")
	reg.Alias("expert_dispatch", "embedding_grad")

	// MoE top-k gating: reduce scores then gather the chosen experts.
	reg.Register(Kernel{
		Name:     "topk_gate",
		LoopVars: []string{"i", "j"},
		Stmts: []Stmt{
			{LHS: A("Best", "i"), Accum: true, RHS: []Access{A("Scores", "i", "j")}},
			{LHS: A("Sel", "i"), RHS: []Access{AVia("Scores", "Best", "i")}},
		},
	})

	// --- stencils ---
	// conv2d expressed as a 3x1 neighbourhood accumulation per output point.
	reg.Register(Kernel{
		Name:     "conv2d",
		LoopVars: []string{"i", "j", "k"},
		Stmts: []Stmt{
			{LHS: A("B", "i", "j"), Accum: true, RHS: []Access{
				AOff("A", Index{Var: "i", Offset: -1}, Index{Var: "j"}),
				AOff("A", Index{Var: "i"}, Index{Var: "j"}),
				AOff("A", Index{Var: "i", Offset: 1}, Index{Var: "j"}),
			}},
		},
	})
	for _, alias := range []string{"conv1d", "conv2d_grad", "depthwise_conv",
		"conv_transpose", "upsample"} {
		reg.Alias(alias, "conv2d")
	}

	// pooling: neighbourhood reduction.
	reg.Register(Kernel{
		Name:     "maxpool",
		LoopVars: []string{"i", "j"},
		Stmts: []Stmt{
			{LHS: A("B", "i"), Accum: true, RHS: []Access{
				AOff("A", Index{Var: "i"}, Index{Var: "j", Offset: 1}),
			}},
		},
	})
	reg.Alias("avgpool", "maxpool")

	// --- recurrent cells: gate matmuls + stream gating ---
	reg.Register(Kernel{
		Name:     "lstm_cell",
		LoopVars: []string{"i", "j", "k"},
		Stmts: []Stmt{
			{LHS: A("G", "i", "j"), Accum: true, RHS: []Access{A("X", "i", "k"), A("W", "k", "j")}},
			{LHS: A("C", "i", "j"), RHS: []Access{A("G", "i", "j"), A("Cprev", "i", "j")}},
		},
	})
	reg.Alias("gru_cell", "lstm_cell")
	reg.Alias("lstm_cell_grad", "lstm_cell")
	reg.Alias("tree_compose", "lstm_cell")

	// --- optimizer updates (stream over weights + states) ---
	reg.Register(Kernel{
		Name:     "sgd_update",
		LoopVars: []string{"i"},
		Stmts: []Stmt{
			{LHS: A("W", "i"), RHS: []Access{A("W", "i"), A("G", "i")}},
		},
	})
	reg.Alias("adam_update", "sgd_update")

	// --- data movement / shape ops ---
	reg.Register(Kernel{
		Name:     "concat",
		LoopVars: []string{"i", "j"},
		Stmts: []Stmt{
			{LHS: A("C", "i", "j"), RHS: []Access{A("A", "i", "j")}},
		},
	})
	reg.Alias("split", "concat")
	reg.Alias("reshape", "concat")
	reg.Alias("slice", "concat")

	// --- AlphaFold evoformer specials ---
	// triangle multiplicative update: pair activations with a contraction.
	reg.Register(Kernel{
		Name:     "triangle_mult",
		LoopVars: []string{"i", "j", "k"},
		Stmts: []Stmt{
			{LHS: A("Z", "i", "j"), Accum: true, RHS: []Access{A("L", "i", "k"), A("R", "j", "k")}},
		},
	})
	// outer product mean: O[i][j] += M[s][i] * M[s][j] over sequences.
	reg.Register(Kernel{
		Name:     "outer_product_mean",
		LoopVars: []string{"s", "i", "j"},
		Stmts: []Stmt{
			{LHS: A("O", "i", "j"), Accum: true, RHS: []Access{A("M", "s", "i"), A("M", "s", "j")}},
		},
	})
}

// routerOccurrences is the idiom multiplicity of the router (control-flow
// metadata) operators: large enough that a router instance is clearly
// visible in a block's idiom sums next to ordinary operators.
const routerOccurrences = 48

// RouterOpNames lists the six router operators, one per idiom column, in
// idiom order. Router operators are emitted by DyNN branch arms as routing
// metadata; their idiom signatures concentrate on a single column, which
// makes control-flow decisions legible in execution-block descriptors.
var RouterOpNames = [NumIdioms]string{
	"router_transpose", "router_gather", "router_scatter",
	"router_reduction", "router_stream", "router_stencil",
}

func init() {
	stmtFor := func(id Idiom) Stmt {
		switch id {
		case Transpose:
			return Stmt{LHS: A("B", "i", "j"), RHS: []Access{A("A", "j", "i")}}
		case Gather:
			return Stmt{LHS: A("B", "i"), RHS: []Access{AVia("A", "C", "i")}}
		case Scatter:
			return Stmt{LHS: AVia("B", "C", "i"), RHS: []Access{A("A", "i")}}
		case Reduction:
			return Stmt{LHS: A("s"), Accum: true, RHS: []Access{A("A", "i")}}
		case Stream:
			return Stmt{LHS: A("B", "i"), RHS: []Access{A("A", "i")}}
		case Stencil:
			return Stmt{LHS: A("B", "i"), RHS: []Access{AOff("A", Index{Var: "i", Offset: 1})}}
		}
		panic("idiom: bad router idiom")
	}
	for id := Idiom(0); id < NumIdioms; id++ {
		stmts := make([]Stmt, routerOccurrences)
		for i := range stmts {
			stmts[i] = stmtFor(id)
		}
		Default.Register(Kernel{
			Name:     RouterOpNames[id],
			LoopVars: []string{"i", "j"},
			Stmts:    stmts,
		})
	}
}
