package core

import (
	"errors"
	"testing"

	"dynnoffload/internal/faults"
	"dynnoffload/internal/obsv"
)

// TestRunBatchMatchesEpoch: folding RunBatch's per-sample results must
// reproduce serial RunEpoch's aggregates — same pipeline, different return
// shape.
func TestRunBatchMatchesEpoch(t *testing.T) {
	_, test, p, plat := testBench(t)

	serial := NewEngine(DefaultConfig(plat), p)
	want, err := serial.RunEpoch(test)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(DefaultConfig(plat), p)
	results, err := eng.RunBatch(test, EpochOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(test) {
		t.Fatalf("got %d results for %d samples", len(results), len(test))
	}
	var got EpochReport
	for _, r := range results {
		got.Add(r)
	}
	if got.Samples != want.Samples ||
		got.Mispredictions != want.Mispredictions ||
		got.CacheHits != want.CacheHits {
		t.Errorf("counts diverge: got %d/%d/%d want %d/%d/%d",
			got.Samples, got.Mispredictions, got.CacheHits,
			want.Samples, want.Mispredictions, want.CacheHits)
	}
	if got.Breakdown != want.Breakdown {
		t.Errorf("breakdown diverges:\ngot  %+v\nwant %+v", got.Breakdown, want.Breakdown)
	}
	if eng.CacheStats().Entries != serial.CacheStats().Entries {
		t.Errorf("cache size %d, serial %d", eng.CacheStats().Entries, serial.CacheStats().Entries)
	}
}

// TestRunBatchWorkerInvariance: per-sample results are bit-identical in their
// deterministic fields at any worker count, fault-free and faulted.
func TestRunBatchWorkerInvariance(t *testing.T) {
	_, test, p, plat := testBench(t)
	batch := test[:40]

	for _, fc := range []faults.Config{{}, {Seed: 11, Rate: 0.3}} {
		run := func(workers int) []SampleResult {
			cfg := DefaultConfig(plat)
			if fc.Rate > 0 {
				cfg.Faults = faults.New(fc)
			}
			eng := NewEngine(cfg, p)
			results, err := eng.RunBatch(batch, EpochOptions{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return stripWallResults(results)
		}
		want := run(1)
		for _, workers := range []int{2, 4, 8} {
			got := run(workers)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("rate=%v workers=%d sample %d:\ngot  %+v\nwant %+v",
						fc.Rate, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRunBatchTraceBase: TraceBase offsets tracer sample indices so
// consecutive dispatches land in distinct trace slots.
func TestRunBatchTraceBase(t *testing.T) {
	_, test, p, plat := testBench(t)
	eng := NewEngine(DefaultConfig(plat), p)
	tr := obsv.NewTracer()
	if _, err := eng.RunBatch(test[:3], EpochOptions{Workers: 1, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunBatch(test[3:5], EpochOptions{Workers: 1, Tracer: tr, TraceBase: 3}); err != nil {
		t.Fatal(err)
	}
	if n := tr.SampleCount(); n != 5 {
		t.Fatalf("trace slots = %d, want 5 (no collisions across dispatches)", n)
	}
	seen := map[int]bool{}
	for _, sp := range tr.Spans() {
		seen[sp.Sample] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[i] {
			t.Errorf("missing trace slot %d", i)
		}
	}
}

// TestRunBatchRecorder: per-sample observations reach the recorder with
// TraceBase-offset sample indices.
func TestRunBatchRecorder(t *testing.T) {
	_, test, p, plat := testBench(t)
	eng := NewEngine(DefaultConfig(plat), p)
	rec := obsv.NewRecorder("batch-test", 2, nil)
	results, err := eng.RunBatch(test[:6], EpochOptions{Workers: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	stats := rec.Finish()
	if stats.Samples != int64(len(results)) {
		t.Errorf("recorder samples %d != batch %d", stats.Samples, len(results))
	}
	for _, phase := range []string{PhasePilot, PhaseMapping, PhaseSimulate} {
		if stats.Phases[phase].Count != int64(len(results)) {
			t.Errorf("phase %s count = %d, want %d", phase, stats.Phases[phase].Count, len(results))
		}
	}
}

func TestRunBatchErrors(t *testing.T) {
	_, test, p, plat := testBench(t)

	untrained := NewEngine(DefaultConfig(plat), nil)
	if _, err := untrained.RunBatch(test, EpochOptions{}); !errors.Is(err, ErrPilotNotTrained) {
		t.Errorf("err = %v, want ErrPilotNotTrained", err)
	}

	eng := NewEngine(DefaultConfig(plat), p)
	results, err := eng.RunBatch(nil, EpochOptions{})
	if err != nil || results != nil {
		t.Errorf("empty batch: %v, %v", results, err)
	}
}
