package expt

import (
	"fmt"
	"runtime"
	"time"

	"dynnoffload/internal/core"
	"dynnoffload/internal/obsv"
)

// ParallelSpeedup measures the parallel epoch runtime for every dynamic zoo
// model: wall-clock samples/sec at 1 worker vs N workers, with a
// verification column asserting that epoch aggregates (virtual time,
// traffic, mis-predictions, cache hits) are identical — the determinism
// contract of core.ParallelRunEpoch. An optional JSONL sink receives
// per-sample events for the N-worker runs. The returned RunStats slice
// carries one aggregate record per model (the N-worker run), for
// machine-readable benchmark output.
func ParallelSpeedup(wb *Workbench, workers int, sink obsv.Sink) (*Table, []obsv.RunStats) {
	tab := &Table{
		Title:  fmt.Sprintf("Parallel epoch runtime: %d workers vs 1", workers),
		Header: []string{"model", "samples", "par1-ms", "parN-ms", "speedup", "samples/s", "mispred%", "cache-hit%", "aggregates"},
	}
	var worst float64
	var allStats []obsv.RunStats
	for _, mb := range wb.Models {
		if !mb.Entry.Dynamic {
			continue
		}

		par1Eng := wb.Engine(mb)
		t1 := time.Now()
		par1Rep, err := par1Eng.ParallelRunEpoch(mb.Test, core.EpochOptions{Workers: 1})
		par1Wall := time.Since(t1)
		if err != nil {
			tab.Rows = append(tab.Rows, []string{mb.Entry.Name, "-", "error: " + err.Error()})
			continue
		}

		parNEng := wb.Engine(mb)
		rec := obsv.NewRecorder(mb.Entry.Name, workers, sink)
		wb.Opts.Metrics.Register(rec)
		tracer := obsv.NewTracer()
		tN := time.Now()
		parNRep, err := parNEng.ParallelRunEpoch(mb.Test, core.EpochOptions{Workers: workers, Recorder: rec, Tracer: tracer})
		parNWall := time.Since(tN)
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

		speedup := float64(par1Wall) / float64(parNWall)
		if worst == 0 || speedup < worst {
			worst = speedup
		}
		cacheStats := parNEng.CacheStats()
		tab.Rows = append(tab.Rows, []string{
			mb.Entry.Name,
			fmt.Sprintf("%d", parNRep.Samples),
			fmt.Sprintf("%.1f", par1Wall.Seconds()*1e3),
			fmt.Sprintf("%.1f", parNWall.Seconds()*1e3),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.0f", stats.SamplesPerSec),
			fmt.Sprintf("%.1f", stats.MispredictRate*100),
			fmt.Sprintf("%.1f", cacheStats.HitRate()*100),
			match,
		})
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("speedup = wall(1 worker)/wall(%d workers); aggregates column verifies worker-count determinism", workers),
		fmt.Sprintf("worst speedup %.2fx on GOMAXPROCS=%d", worst, runtime.GOMAXPROCS(0)),
	)
	if runtime.GOMAXPROCS(0) == 1 {
		tab.Notes = append(tab.Notes,
			"single-CPU host: goroutines time-slice one core, so ~1.0x wall-clock is expected; determinism (identical aggregates) is the meaningful check here")
	}
	return tab, allStats
}
