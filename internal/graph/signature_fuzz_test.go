package graph_test

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/sentinel"
	"dynnoffload/internal/trace"
)

var (
	sigFuzzOnce   sync.Once
	sigFuzzModels []dynn.Model
)

// sigFuzzZoo builds every zoo workload once per fuzz binary (batch 1, fixed
// seed); resolution reuses these, while plan construction builds fresh
// instances so tensor numbering starts identically on both sides.
func sigFuzzZoo() []dynn.Model {
	sigFuzzOnce.Do(func() {
		for _, entry := range dynn.Zoo() {
			sigFuzzModels = append(sigFuzzModels, entry.New(1, 7))
		}
	})
	return sigFuzzModels
}

// sigFuzzSample turns fuzz bytes into a resolvable sample the same way the
// zoo's own fuzz target does.
func sigFuzzSample(tok []byte) *dynn.Sample {
	tokens := make([]int, len(tok))
	for i, b := range tok {
		tokens[i] = int(b) * 31 // spread beyond [0,255]
	}
	return &dynn.Sample{ID: 1, Tokens: tokens, Embed: dynn.EmbedTokens(tokens)}
}

// opSequence is the fuzz oracle for path identity: an injective rendering of
// (model name, operator sequence) built independently of PathSignature — no
// run-length compression, every field quoted or delimited. Floats are
// rendered, not compared, keeping the oracle inside the floatcmp lint rules
// like the signature itself.
func opSequence(r *graph.Resolved) string {
	var sb strings.Builder
	sb.WriteString(strconv.Quote(r.ModelName))
	for _, op := range r.Ops {
		sb.WriteByte('\n')
		sb.WriteString(strconv.Quote(op.Name))
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatInt(op.FLOPs, 10))
		for _, v := range op.Sig {
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return sb.String()
}

// sigFuzzPlan compiles the resolved plan for one token stream on a FRESH
// instance of zoo entry sel: expand the training iteration, trace it, run the
// Sentinel analysis, partition at the 9/4 double-buffer floor (always
// feasible), and fold the walk into a BlockPlan. Fresh instances make the
// comparison exact: registries start from the same tensor numbering, so two
// identical op sequences must produce bit-identical plans.
func sigFuzzPlan(t *testing.T, sel int, tok []byte) *sentinel.BlockPlan {
	t.Helper()
	m := dynn.Zoo()[sel].New(1, 7)
	r, err := m.Resolve(sigFuzzSample(tok))
	if err != nil {
		t.Fatalf("%s: re-resolve on fresh instance failed: %v", m.Name(), err)
	}
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	it := graph.ExpandTraining(m.Registry(), r, m.WeightStates(), true)
	an := sentinel.NewAnalysis(trace.FromIteration(m.Name(), it, cm), cm)
	budget := 9 * an.MaxSingleOpBytes() / 4
	blocks := an.Partition(budget)
	if blocks == nil {
		t.Fatalf("%s: partition infeasible at the double-buffer floor %d", m.Name(), budget)
	}
	return sentinel.NewBlockPlan(an, blocks)
}

// FuzzPlanSignature fuzzes the plan-cache keying contract over the full model
// zoo: PathSignature must be injective on (model, operator sequence). For two
// arbitrary resolutions it checks, both directions at once,
//
//	PathSignature(a) == PathSignature(b)  ⇔  identical operator sequences
//
// ("unequal resolved paths ⇒ unequal signatures" is the ⇐ contrapositive),
// and whenever the signatures agree it compiles both resolved plans from
// scratch and requires them bit-identical — the property that makes serving a
// cached plan to a signature-equal path sound.
func FuzzPlanSignature(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{}, []byte{})
	f.Add(byte(1), byte(1), []byte("the quick brown fox"), []byte("the quick brown fox"))
	f.Add(byte(2), byte(2), []byte{1, 2, 3, 4}, []byte{4, 3, 2, 1})
	f.Add(byte(3), byte(7), []byte{0xff, 0x80}, []byte{0x7f, 0x00})
	f.Fuzz(func(t *testing.T, selA, selB byte, tokA, tokB []byte) {
		if len(tokA) > 64 {
			tokA = tokA[:64]
		}
		if len(tokB) > 64 {
			tokB = tokB[:64]
		}
		zoo := sigFuzzZoo()
		ia, ib := int(selA)%len(zoo), int(selB)%len(zoo)
		ra, err := zoo[ia].Resolve(sigFuzzSample(tokA))
		if err != nil {
			t.Fatalf("%s: resolve: %v", zoo[ia].Name(), err)
		}
		rb, err := zoo[ib].Resolve(sigFuzzSample(tokB))
		if err != nil {
			t.Fatalf("%s: resolve: %v", zoo[ib].Name(), err)
		}

		sigA, sigB := graph.PathSignature(ra), graph.PathSignature(rb)
		if again := graph.PathSignature(ra); again != sigA {
			t.Fatalf("signature not deterministic:\n %q\n %q", sigA, again)
		}
		seqEq := opSequence(ra) == opSequence(rb)
		if (sigA == sigB) != seqEq {
			t.Fatalf("signature/op-sequence disagreement (sigEq=%v seqEq=%v):\nsigA %q\nsigB %q",
				sigA == sigB, seqEq, sigA, sigB)
		}

		if sigA != sigB {
			return
		}
		// Equal signatures ⇒ identical resolved plans, compiled independently.
		planA := sigFuzzPlan(t, ia, tokA)
		planB := sigFuzzPlan(t, ib, tokB)
		if !reflect.DeepEqual(planA, planB) {
			t.Fatalf("equal signatures produced different plans for %q:\n got %+v\nwant %+v",
				sigA, planB, planA)
		}
	})
}
