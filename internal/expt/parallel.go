package expt

import (
	"fmt"

	"dynnoffload/internal/core"
	"dynnoffload/internal/obsv"
)

// ParallelEpoch runs every dynamic zoo model's test epoch at 1 worker and at
// N workers and checks that the epoch aggregates (virtual time, traffic,
// mis-predictions, cache hits) are identical — the determinism contract of
// core.ParallelRunEpoch. It reports no wall-clock speedup: one cold epoch per
// worker count is too noisy to read one from, and TestParallelEpochSpeedup
// (internal/core) and BenchmarkTrainEpoch gate the worker pool's speedup. An
// optional JSONL sink receives per-sample events for the N-worker runs. The
// returned RunStats slice carries one aggregate record per model (the
// N-worker run), for machine-readable benchmark output.
func ParallelEpoch(wb *Workbench, workers int, sink obsv.Sink) (*Table, []obsv.RunStats) {
	tab := &Table{
		Title:  fmt.Sprintf("Parallel epoch determinism: %d workers vs 1", workers),
		Header: []string{"model", "samples", "mispred%", "cache-hit%", "aggregates"},
	}
	var allStats []obsv.RunStats
	for _, mb := range wb.Models {
		if !mb.Entry.Dynamic {
			continue
		}

		par1Rep, err := wb.Engine(mb).ParallelRunEpoch(mb.Test, core.EpochOptions{Workers: 1})
		if err != nil {
			tab.Rows = append(tab.Rows, []string{mb.Entry.Name, "-", "error: " + err.Error()})
			continue
		}

		parNEng := wb.Engine(mb)
		rec := obsv.NewRecorder(mb.Entry.Name, workers, sink)
		wb.Opts.Metrics.Register(rec)
		tracer := obsv.NewTracer()
		parNRep, err := parNEng.ParallelRunEpoch(mb.Test, core.EpochOptions{Workers: workers, Recorder: rec, Tracer: tracer})
		if err != nil {
			tab.Rows = append(tab.Rows, []string{mb.Entry.Name, "-", "error: " + err.Error()})
			continue
		}
		rec.SetOverlap(obsv.NewTimeline(tracer.Spans(), mb.Platform.Link.BW).Overlap())
		stats := rec.Finish()
		allStats = append(allStats, stats)

		// Every field but the pilot and mapping stopwatches must match.
		match := "identical"
		a, b := par1Rep, parNRep
		a.PilotNS, a.MappingNS, b.PilotNS, b.MappingNS = 0, 0, 0, 0
		if a != b {
			match = "DIVERGED"
		}

		tab.Rows = append(tab.Rows, []string{
			mb.Entry.Name,
			fmt.Sprintf("%d", parNRep.Samples),
			fmt.Sprintf("%.1f", stats.MispredictRate*100),
			fmt.Sprintf("%.1f", parNEng.CacheStats().HitRate()*100),
			match,
		})
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("aggregates column verifies that %d workers reproduce the 1-worker epoch", workers))
	return tab, allStats
}
