package expt

import (
	"fmt"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/pilot"
)

// pilotDataset builds a train/test example set over the dynamic zoo under a
// feature configuration — shared by Table IV, Fig 11, and the VI-E studies.
func pilotDataset(opts Options, fc pilot.FeatureConfig, exclude map[string]bool) (train, test []*pilot.Example, err error) {
	for _, entry := range dynn.DynamicZoo() {
		m := entry.New(opts.Batch, opts.Seed)
		cm := gpusim.NewCostModel(gpusim.RTXPlatform())
		ctx, err := pilot.NewModelContext(m, cm, 0, 0)
		if err != nil {
			return nil, nil, err
		}
		n := opts.TrainSamples + opts.TestSamples
		samples := dynn.GenerateSamples(opts.Seed^uint64(len(entry.Name))<<6, n, 8, 48)
		exs, err := pilot.BuildExamples(ctx, fc, samples)
		if err != nil {
			return nil, nil, err
		}
		if !exclude[entry.Name] {
			train = append(train, exs[:opts.TrainSamples]...)
		}
		test = append(test, exs[opts.TrainSamples:]...)
	}
	return train, test, nil
}

// TableIV reproduces the pilot-model construction study (Table IV): accuracy
// and inference time as the per-layer neuron count grows. Paper: accuracy
// jumps +0.12 going 256→512, then flattens while inference time keeps
// doubling — 512 is the knee.
func TableIV(opts Options) (*Table, error) {
	train, test, err := pilotDataset(opts, pilot.FeatureConfig{}, nil)
	if err != nil {
		return nil, fmt.Errorf("table4: %w", err)
	}
	t := &Table{
		Title:  "Table IV — pilot accuracy and inference time vs MLP width",
		Header: []string{"neurons", "accuracy", "mispred", "infer us", "train s", "params"},
	}
	var prevAcc float64
	for _, n := range []int{128, 256, 512, 1024} {
		p := pilot.New(pilot.Config{Neurons: n, Epochs: opts.Epochs, Seed: opts.Seed})
		res := p.Train(train)
		ev, err := p.Evaluate(test)
		if err != nil {
			return nil, fmt.Errorf("table4: %w", err)
		}
		acc, mis, lat := ev.Accuracy, ev.Mispredictions, ev.MeanLatency
		delta := ""
		if prevAcc > 0 {
			delta = fmt.Sprintf(" (%+.2f)", acc-prevAcc)
		}
		prevAcc = acc
		t.addRow(
			val("%d", n),
			cell{fmt.Sprintf("%.3f%s", acc, delta), acc},
			cell{fmt.Sprintf("%d/%d", mis, len(test)), mis},
			val("%.1f", float64(lat.Nanoseconds())/1e3),
			val("%.1f", res.WallClock.Seconds()),
			val("%d", p.Params()),
		)
	}
	t.Notes = append(t.Notes,
		"paper: accuracy +0.12 at 256->512 then flattens; inference time ~2x per doubling; 512 chosen",
		"inference here is Go float64 on CPU; the paper's 30 us is CUDA-free C++ — compare shape, not absolute")
	return t, nil
}

// Fig11 reproduces the representation study (Fig 11): pilot accuracy with
// the idiom-based AFM vs the global-operator-ID representation at equal
// width. Paper: idiom wins by >=19% accuracy at the same neuron count; the
// ID representation needs orders of magnitude more neurons for parity.
func Fig11(opts Options) (*Table, error) {
	t := &Table{
		Title:  "Fig 11 — idiom-based vs global-ID architecture representation",
		Header: []string{"neurons", "idiom acc", "global-id acc", "gap", "idiom feats", "id feats"},
	}
	type reprRun struct {
		fc   pilot.FeatureConfig
		accs map[int]float64
	}
	runs := []reprRun{
		{fc: pilot.FeatureConfig{Repr: pilot.IdiomRepr}, accs: map[int]float64{}},
		{fc: pilot.FeatureConfig{Repr: pilot.GlobalIDRepr}, accs: map[int]float64{}},
	}
	widths := []int{128, 256, 512}
	for i := range runs {
		train, test, err := pilotDataset(opts, runs[i].fc, nil)
		if err != nil {
			return nil, fmt.Errorf("fig11: %w", err)
		}
		for _, n := range widths {
			cfg := pilot.Config{Neurons: n, Epochs: opts.Epochs, Seed: opts.Seed, Features: runs[i].fc}
			p := pilot.New(cfg)
			p.Train(train)
			ev, err := p.Evaluate(test)
			if err != nil {
				return nil, fmt.Errorf("fig11: %w", err)
			}
			runs[i].accs[n] = ev.Accuracy
		}
	}
	idiomW := (pilot.FeatureConfig{Repr: pilot.IdiomRepr}).Width()
	idW := (pilot.FeatureConfig{Repr: pilot.GlobalIDRepr}).Width()
	for _, n := range widths {
		t.addRow(
			val("%d", n),
			val("%.3f", runs[0].accs[n]),
			val("%.3f", runs[1].accs[n]),
			val("%+.3f", runs[0].accs[n]-runs[1].accs[n]),
			val("%d", idiomW),
			val("%d", idW),
		)
	}
	t.Notes = append(t.Notes, "paper: idiom representation leads by >=19% accuracy at equal model size")
	return t, nil
}
