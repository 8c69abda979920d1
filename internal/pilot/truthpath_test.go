package pilot

import (
	"errors"
	"slices"
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/mathx"
)

// oracleTruthPath is the route TruthPath replaced: materialize the sample's
// whole forward graph and key it.
func oracleTruthPath(ctx *ModelContext, s *dynn.Sample) (*PathInfo, error) {
	r, err := ctx.Model.Resolve(s)
	if err != nil {
		return nil, err
	}
	return ctx.PathByKey(PathKey(r)), nil
}

// TestTruthPathMatchesResolve: for every zoo model, TruthPath's sites-only
// walk returns the very PathInfo the full resolution keys to.
func TestTruthPathMatchesResolve(t *testing.T) {
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	for _, entry := range dynn.Zoo() {
		t.Run(entry.Name, func(t *testing.T) {
			ctx, err := NewModelContext(entry.New(1, 7), cm, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range dynn.GenerateSamples(11, 200, 4, 48) {
				want, err := oracleTruthPath(ctx, s)
				if err != nil || want == nil {
					t.Fatalf("sample %d: oracle resolved to %v, %v", s.ID, want, err)
				}
				got, err := ctx.TruthPath(s)
				if err != nil {
					t.Fatalf("sample %d: %v", s.ID, err)
				}
				if got != want {
					t.Fatalf("sample %d: TruthPath %q, Resolve keys %q", s.ID, got.Key, want.Key)
				}
			}
		})
	}
}

// TestTruthPathUnknown: a sample whose path the context does not hold fails
// with ErrUnknownPath.
func TestTruthPathUnknown(t *testing.T) {
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 2, Seed: 2})
	ctx, err := NewModelContext(m, gpusim.NewCostModel(gpusim.RTXPlatform()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := dynn.GenerateSamples(3, 1, 8, 32)[0]
	truth, err := ctx.TruthPath(s)
	if err != nil {
		t.Fatal(err)
	}
	delete(ctx.byKey, truth.Key)
	if _, err := ctx.TruthPath(s); !errors.Is(err, ErrUnknownPath) {
		t.Fatalf("err = %v, want ErrUnknownPath", err)
	}
}

// TestReachedSitesMatchesResolve: on random decision vectors, in range or
// not, graph.ReachedSites fails exactly when graph.Resolve does and marks the
// same reached sites when neither fails.
func TestReachedSitesMatchesResolve(t *testing.T) {
	rng := mathx.NewRNG(5)
	for _, entry := range dynn.Zoo() {
		s := entry.New(1, 7).Static()
		ranges := s.DecisionRange()
		reached := make([]bool, s.NumSites)
		for trial := 0; trial < 500; trial++ {
			decisions := make([]int, s.NumSites)
			for site, r := range ranges {
				// [-1, r]: one value below and one above the valid range.
				decisions[site] = rng.Intn(r+2) - 1
			}
			if trial%2 == 0 {
				// Half the trials stay in range, so most of them resolve.
				for site, r := range ranges {
					decisions[site] = rng.Intn(r)
				}
			}
			// Dirty the buffer: ReachedSites must clear it.
			for i := range reached {
				reached[i] = true
			}
			r, rerr := graph.Resolve(s, decisions)
			werr := graph.ReachedSites(s, decisions, reached)
			if (rerr == nil) != (werr == nil) {
				t.Fatalf("%s %v: Resolve err %v, ReachedSites err %v", entry.Name, decisions, rerr, werr)
			}
			if rerr == nil && !slices.Equal(r.Reached, reached) {
				t.Fatalf("%s %v: reached %v, Resolve reached %v", entry.Name, decisions, reached, r.Reached)
			}
		}
		if err := graph.ReachedSites(s, make([]int, s.NumSites+1), reached); err == nil {
			t.Errorf("%s: ReachedSites accepted a decision vector of the wrong length", entry.Name)
		}
	}
}
