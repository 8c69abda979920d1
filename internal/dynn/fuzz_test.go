package dynn

import (
	"sync"
	"testing"

	"dynnoffload/internal/graph"
)

var (
	fuzzOnce   sync.Once
	fuzzModels []Model
)

// fuzzZoo builds every zoo workload once per fuzz binary (batch 1, fixed
// seed) so iterations only pay for resolution, not graph construction. The
// set includes the static baselines: their zero-site graphs exercise the
// empty-decision edge cases.
func fuzzZoo() []Model {
	fuzzOnce.Do(func() {
		for _, entry := range Zoo() {
			fuzzModels = append(fuzzModels, entry.New(1, 7))
		}
	})
	return fuzzModels
}

// checkResolved asserts the structural invariants of a successful resolution:
// the op sequence is non-empty, bookkeeping aggregates agree with it, and
// every reached site holds an in-range decision.
func checkResolved(t *testing.T, s *graph.Static, r *graph.Resolved) {
	t.Helper()
	if len(r.Ops) == 0 {
		t.Fatal("resolved graph has no operators")
	}
	if len(r.Reached) != s.NumSites || len(r.Decisions) != s.NumSites {
		t.Fatalf("reached/decisions lengths (%d, %d) != NumSites %d",
			len(r.Reached), len(r.Decisions), s.NumSites)
	}
	if st := r.Stats(); st.OpCount != len(r.Ops) {
		t.Fatalf("Stats().OpCount %d != len(Ops) %d", st.OpCount, len(r.Ops))
	}
	if totalFLOPs(r) < 0 {
		t.Fatal("negative total FLOPs")
	}
	if bits := r.ControlBits(s); len(bits) != s.NumSites {
		t.Fatalf("ControlBits length %d != NumSites %d", len(bits), s.NumSites)
	}
	ranges := s.DecisionRange()
	for site, reached := range r.Reached {
		if reached && (r.Decisions[site] < 0 || r.Decisions[site] >= ranges[site]) {
			t.Fatalf("site %d reached with out-of-range decision %d (range %d)",
				site, r.Decisions[site], ranges[site])
		}
	}
}

// FuzzResolve drives graph.Resolve with arbitrary decision vectors over the
// full model zoo, plus the model's own ground-truth sample resolution. The
// contract under fuzzing: Resolve never panics — malformed vectors (wrong
// length, out-of-range sites) come back as errors, in-range vectors and
// ground-truth decisions always produce a structurally consistent Resolved.
func FuzzResolve(f *testing.F) {
	f.Add(byte(0), []byte{}, []byte("the quick brown fox"))
	f.Add(byte(1), []byte{0, 1, 2, 3, 0, 1, 2, 3}, []byte{9, 9, 9})
	f.Add(byte(2), []byte{0xff, 0x80, 0x7f}, []byte{})
	f.Add(byte(7), []byte{1}, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, sel byte, dec []byte, tok []byte) {
		m := fuzzZoo()[int(sel)%len(fuzzZoo())]
		s := m.Static()
		ranges := s.DecisionRange()

		// Raw bytes as a decision vector, length and values arbitrary
		// (int8 so negatives are covered). Errors are fine; panics are not.
		raw := make([]int, len(dec))
		for i, b := range dec {
			raw[i] = int(int8(b))
		}
		if r, err := graph.Resolve(s, raw); err == nil {
			checkResolved(t, s, r)
		}

		// The same bytes fitted to the site count and clamped into each
		// site's valid range: resolution must succeed.
		fitted := make([]int, s.NumSites)
		for i := range fitted {
			v := 0
			if i < len(dec) {
				v = int(dec[i])
			}
			if ranges[i] > 0 {
				v %= ranges[i]
			}
			fitted[i] = v
		}
		r, err := graph.Resolve(s, fitted)
		if err != nil {
			t.Fatalf("%s: in-range decisions rejected: %v", m.Name(), err)
		}
		checkResolved(t, s, r)

		// Ground-truth path: the builder's Decider must always emit a
		// decision vector its own static graph accepts, for any token
		// sequence (including empty).
		tokens := make([]int, len(tok))
		for i, b := range tok {
			tokens[i] = int(b) * 31 // spread beyond [0,255]
		}
		smp := &Sample{ID: 1, Tokens: tokens, Embed: EmbedTokens(tokens)}
		gt, err := m.Resolve(smp)
		if err != nil {
			t.Fatalf("%s: ground-truth decisions rejected: %v", m.Name(), err)
		}
		checkResolved(t, s, gt)
	})
}
