package core

import (
	"reflect"
	"sync"
	"testing"

	"dynnoffload/internal/pilot"
)

// stripWallResults zeroes the wall-clock fields of batch results: the pilot
// and mapping stopwatches.
func stripWallResults(rs []SampleResult) []SampleResult {
	out := append([]SampleResult(nil), rs...)
	for i := range out {
		out[i].PilotNS, out[i].MappingNS = 0, 0
	}
	return out
}

// TestResolutionMemoMatchesFreshResolve drives two engines that share one
// resolution memo, concurrently, through a batch sequence with a request
// repeated inside a batch, requests recurring across batches, a tenant
// adapter, and Refines of both pilots between batches. Every batch must equal
// the one a memo-free engine (sample memo on, resolution memo off) produces
// in every non-wall field, and requests served again at an unchanged pilot
// version must run no inference.
func TestResolutionMemoMatchesFreshResolve(t *testing.T) {
	_, test, base, plat := testBench(t)
	shared := base.Clone()
	adapter := base.Clone()
	cfg := DefaultConfig(plat)
	cfg.MemoizeSamples = true
	cfg.Resolutions = NewResolutionMemo()
	memoEngines := []*Engine{NewEngine(cfg, shared), NewEngine(cfg, shared)}
	refs := []*Engine{NewEngine(cfg, shared), NewEngine(cfg, shared)}
	for _, ref := range refs {
		ref.resolved = nil
	}

	refine := func(p *pilot.Pilot, seed uint64) {
		if _, err := p.Refine(test[:40], pilot.RefineConfig{LR: 0.05, Momentum: 0.9, Epochs: 3, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	batch := func(idx ...int) []*pilot.Example {
		exs := make([]*pilot.Example, len(idx))
		for i, k := range idx {
			exs[i] = test[k]
		}
		return exs
	}
	type step struct {
		exs     []*pilot.Example
		adapted map[int]bool // batch positions resolved through the adapter
		refine  bool         // refine both pilots before the batch
		allHits bool         // every request was memoized at this version
	}
	steps := []step{
		{exs: batch(0, 1, 2, 3, 0, 4, 5, 1)},
		{exs: batch(5, 4, 3, 2, 1, 0), allHits: true},
		{exs: batch(0, 1, 2, 6, 7, 2), adapted: map[int]bool{1: true, 4: true}},
		{exs: batch(0, 1, 2, 3, 4, 5, 6, 7), adapted: map[int]bool{1: true}, refine: true},
		{exs: batch(7, 6, 5, 4, 3, 2, 1, 0), adapted: map[int]bool{6: true}, allHits: true},
	}
	for s, st := range steps {
		if st.refine {
			refine(shared, uint64(s))
			refine(adapter, uint64(s)+100)
		}
		var pilots []*pilot.Pilot
		if st.adapted != nil {
			pilots = make([]*pilot.Pilot, len(st.exs))
			for i := range pilots {
				if st.adapted[i] {
					pilots[i] = adapter
				}
			}
		}
		opts := EpochOptions{Workers: 2, Pilots: pilots}
		got := make([][]SampleResult, len(memoEngines))
		errs := make([]error, len(memoEngines))
		var wg sync.WaitGroup
		for e, eng := range memoEngines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[e], errs[e] = eng.RunBatch(st.exs, opts)
			}()
		}
		wg.Wait()
		for e, ref := range refs {
			if errs[e] != nil {
				t.Fatalf("step %d engine %d: %v", s, e, errs[e])
			}
			want, err := ref.RunBatch(st.exs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripWallResults(got[e]), stripWallResults(want)) {
				t.Errorf("step %d engine %d: memoized batch differs from the memo-free one\n got %+v\nwant %+v", s, e, got[e], want)
			}
			if !st.allHits {
				continue
			}
			for i, r := range got[e] {
				if r.PilotNS != 0 || r.MappingNS != 0 {
					t.Errorf("step %d engine %d request %d: memoized request ran inference (%d+%d ns)", s, e, i, r.PilotNS, r.MappingNS)
				}
			}
		}
	}

	// After a refine, the memo must answer with the refined weights' output,
	// not the pre-refine one, for every pilot it has seen; and an example
	// that reuses another's sample ID must get its own resolution.
	eng := memoEngines[0]
	alias := *test[9]
	alias.Sample = test[0].Sample
	exs := []*pilot.Example{test[0], test[1], &alias, test[3]}
	for _, p := range []*pilot.Pilot{shared, adapter} {
		refine(p, 7)
		opts := EpochOptions{Pilots: []*pilot.Pilot{p, p, p, p}}
		for pass := 0; pass < 2; pass++ { // a miss, then a hit
			res, errs := eng.resolveAll(exs, &opts, 2)
			for i, ex := range exs {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				fresh, err := p.Resolve(ex)
				if err != nil {
					t.Fatal(err)
				}
				if res[i].Path != fresh.Path || res[i].Exact != fresh.Exact || !reflect.DeepEqual(res[i].Output, fresh.Output) {
					t.Errorf("pass %d request %d: memo resolution differs from a fresh Resolve at version %d", pass, i, p.Version())
				}
			}
		}
	}
}
