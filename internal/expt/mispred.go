package expt

import (
	"fmt"

	"dynnoffload/internal/core"
	"dynnoffload/internal/pilot"
)

// Mispredictions reproduces §VI-E: the pilot's mis-prediction count per model
// on held-out samples. The paper reports fewer than 60 mis-predictions per
// model on 3,000 testing samples at 512 neurons, and trains without
// var-LSTM/var-BERT samples to show generalizability; we evaluate both the
// standard and the leave-out setting and report the gap honestly.
func Mispredictions(wb *Workbench) (*Table, error) {
	t := &Table{
		Title:  "§VI-E — pilot mis-predictions per model (held-out samples)",
		Header: []string{"model", "mispred", "samples", "accuracy"},
	}
	for _, mb := range wb.Models {
		if !mb.Entry.Dynamic {
			continue
		}
		ev, err := wb.Pilot.Evaluate(mb.Test)
		if err != nil {
			return nil, fmt.Errorf("mispredictions: %s: %w", mb.Entry.Name, err)
		}
		t.Rows = append(t.Rows, []string{
			mb.Entry.Name, fmt.Sprintf("%d", ev.Mispredictions), fmt.Sprintf("%d", len(mb.Test)), fmt.Sprintf("%.3f", ev.Accuracy),
		})
	}

	// Leave-out generalization (paper: pilot trained without var-LSTM and
	// var-BERT samples, then evaluated on them).
	var train []*pilot.Example
	excluded := map[string]bool{"var-LSTM": true, "var-BERT": true}
	for _, mb := range wb.Models {
		if mb.Entry.Dynamic && !excluded[mb.Entry.Name] {
			train = append(train, mb.Train...)
		}
	}
	p := pilot.New(pilot.Config{Neurons: wb.Opts.Neurons, Epochs: wb.Opts.Epochs, Seed: wb.Opts.Seed})
	p.Train(train)
	for _, name := range []string{"var-LSTM", "var-BERT"} {
		mb := wb.Bench(name)
		ev, err := p.Evaluate(mb.Test)
		if err != nil {
			return nil, fmt.Errorf("mispredictions: %s leave-out: %w", name, err)
		}
		t.Rows = append(t.Rows, []string{
			name + " (leave-out)", fmt.Sprintf("%d", ev.Mispredictions), fmt.Sprintf("%d", len(mb.Test)), fmt.Sprintf("%.3f", ev.Accuracy),
		})
	}
	t.Notes = append(t.Notes,
		"paper: <60 mis-predictions per model at 3,000 samples (512 neurons)",
		"leave-out rows: pilot trained without that model's samples — zero-shot transfer to unseen architectures is a known gap of this reproduction (see EXPERIMENTS.md)")
	return t, nil
}

// MispredHandling reproduces §VI-H: mis-prediction counts with and without
// the runtime's mis-prediction cache, and the time impact of the on-demand
// fallback. Paper: 167/109/182 → 59/42/102 for Tree-CNN / Tree-LSTM /
// var-BERT on 3,000 samples; time impact < 1%.
func MispredHandling(wb *Workbench) (*Table, error) {
	t := &Table{
		Title:  "§VI-H — mis-predictions without/with runtime handling",
		Header: []string{"model", "without", "with", "reduction", "time impact"},
	}
	for _, name := range []string{"Tree-CNN", "Tree-LSTM", "var-BERT"} {
		mb := wb.Bench(name)

		cfgOff := core.DefaultConfig(mb.Platform)
		cfgOff.HandleMispredictions = false
		engOff := core.NewEngine(cfgOff, wb.Pilot)
		repOff, err := engOff.RunEpoch(mb.Test)
		if err != nil {
			return nil, fmt.Errorf("mispred-handling: %s: %w", name, err)
		}

		engOn := core.NewEngine(core.DefaultConfig(mb.Platform), wb.Pilot)
		repOn, err := engOn.RunEpoch(mb.Test)
		if err != nil {
			return nil, fmt.Errorf("mispred-handling: %s: %w", name, err)
		}

		// Time impact of mis-predictions: compare against an oracle epoch
		// with zero mis-predictions (every sample pipelined).
		var oracle int64
		for _, ex := range mb.Test {
			info := mb.Ctx.PathByKey(ex.TruthKey)
			oracle += engOn.SimulatePartition(info.Analysis, info.Blocks).TotalNS()
		}
		impact := float64(repOn.Breakdown.TotalNS()-oracle) / float64(oracle) * 100

		red := "-"
		if repOff.Mispredictions > 0 {
			red = fmt.Sprintf("%.0f%%", 100*float64(repOff.Mispredictions-repOn.Mispredictions)/float64(repOff.Mispredictions))
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", repOff.Mispredictions),
			fmt.Sprintf("%d", repOn.Mispredictions),
			red,
			fmt.Sprintf("%.2f%%", impact),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d samples per model; paper (3,000 samples): 167/109/182 -> 59/42/102, time impact <1%%", wb.Opts.TestSamples))
	return t, nil
}

// Overhead reproduces the §VI-C overhead analysis: pilot inference time and
// output-mapping time per training sample. Paper: ~30 us inference,
// 10–15 us mapping, vs iteration times of O(100 ms) for large DyNNs.
func Overhead(wb *Workbench) (*Table, error) {
	t := &Table{
		Title:  "§VI-C — per-sample DyNN-Offload overheads",
		Header: []string{"model", "pilot infer us", "mapping us", "iteration ms", "overhead share"},
	}
	for _, mb := range wb.Models {
		if !mb.Entry.Dynamic {
			continue
		}
		eng := wb.Engine(mb)
		rep, err := eng.RunEpoch(mb.Test)
		if err != nil {
			return nil, fmt.Errorf("overhead: %s: %w", mb.Entry.Name, err)
		}
		n := int64(rep.Samples)
		iter := rep.Breakdown.TotalNS() / n
		pilotUS := float64(rep.PilotNS) / float64(n) / 1e3
		mapUS := float64(rep.MappingNS) / float64(n) / 1e3
		t.Rows = append(t.Rows, []string{
			mb.Entry.Name,
			fmt.Sprintf("%.1f", pilotUS),
			fmt.Sprintf("%.1f", mapUS),
			ms(iter),
			fmt.Sprintf("%.3f%%", 100*float64(rep.PilotNS+rep.MappingNS)/float64(rep.Breakdown.TotalNS())),
		})
	}
	t.Notes = append(t.Notes,
		"paper: ~30 us inference + 10-15 us mapping, negligible vs iteration time",
		"overhead share = measured host wall time (inference + mapping) / simulated iteration time")
	return t, nil
}
