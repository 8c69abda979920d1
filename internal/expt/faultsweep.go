package expt

import (
	"fmt"

	"dynnoffload/internal/core"
	"dynnoffload/internal/faults"
)

// FaultSweepRates are the injection rates swept by FaultSweep.
var FaultSweepRates = []float64{0, 0.01, 0.05, 0.10, 0.25}

// FaultSweep measures graceful degradation: one epoch of the Tree-LSTM bench
// under deterministic fault injection at increasing rates, DyNN-Offload's
// pipelined engine against the always-on-demand baseline. Slowdown is each
// system's virtual epoch time relative to its own fault-free run, so the
// comparison isolates how each schedule absorbs faults (the pipelined engine
// hides recovery work behind compute; the on-demand baseline pays it all on
// the critical path). Fresh engines per cell keep the mis-prediction cache
// evolution identical across rates.
func FaultSweep(wb *Workbench) (*Table, error) {
	mb := wb.Bench("Tree-LSTM")
	if mb == nil {
		return nil, fmt.Errorf("expt: faultsweep: bench Tree-LSTM not found")
	}

	runCell := func(rate float64, onDemand bool) (int64, faults.Counters, error) {
		cfg := core.DefaultConfig(mb.Platform)
		cfg.ForceOnDemand = onDemand
		if rate > 0 {
			cfg.Faults = faults.New(faults.Config{Seed: wb.Opts.Seed, Rate: rate})
		}
		eng := core.NewEngine(cfg, wb.Pilot)
		rep, err := wb.runEpoch(eng, mb)
		if err != nil {
			return 0, faults.Counters{}, err
		}
		return rep.Breakdown.TotalNS(), rep.FaultCounters, nil
	}

	t := &Table{
		Title:  "Fault sweep: slowdown vs fault rate (Tree-LSTM, engine vs on-demand)",
		Header: []string{"rate", "engine ms", "engine x", "on-demand ms", "on-demand x", "injected", "retries", "sync fb", "drop fb"},
	}
	var engBase, odBase int64
	for _, rate := range FaultSweepRates {
		engNS, engC, err := runCell(rate, false)
		if err != nil {
			return nil, err
		}
		odNS, _, err := runCell(rate, true)
		if err != nil {
			return nil, err
		}
		if rate == 0 {
			engBase, odBase = engNS, odNS
		}
		slow := func(ns, base int64) string {
			if base == 0 {
				return "-"
			}
			return fmt.Sprintf("%.3fx", float64(ns)/float64(base))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", rate),
			ms(engNS), slow(engNS, engBase),
			ms(odNS), slow(odNS, odBase),
			fmt.Sprintf("%d", engC.Injected()),
			fmt.Sprintf("%d", engC.Retries),
			fmt.Sprintf("%d", engC.SyncFallbacks),
			fmt.Sprintf("%d", engC.OnDemandFallbacks),
		})
	}
	t.Notes = append(t.Notes,
		"slowdown is each system's virtual epoch time over its own fault-free run",
		fmt.Sprintf("fault seed %d; counters are the engine's (injected faults and recovery work)", wb.Opts.Seed),
	)
	return t, nil
}
