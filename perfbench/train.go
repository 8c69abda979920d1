package main

import (
	"fmt"

	"dynnoffload"
	"dynnoffload/internal/core"
)

// trainModels take turns inside every op: Tree-LSTM maps over 64 paths, MoE over
// 256, so output-to-path mapping cost differs between them.
var trainModels = []string{"Tree-LSTM", "MoE"}

// trainEpoch is the train-epoch workload: each op is System.TrainEpoch over
// each model's fixed held-out set in turn, Tree-LSTM's then MoE's, on the
// parallel runtime with two workers, under memory pressure, fault-free. An
// op spans both models so the op-time distribution is not split in two.
type trainEpoch struct {
	seed    uint64
	data    []corpus
	systems []*dynnoffload.System

	// First timed op per model, and its simulated fingerprint.
	first       []dynnoffload.EpochReport
	firstDigest []string
	// Per-sample simulated device ms of each model's epoch, and how many
	// samples ran slower than their path's correctly predicted schedule.
	perSampleMS [][]float64
	misses      []int
}

func newTrainEpoch(seed uint64) *trainEpoch {
	w := &trainEpoch{seed: seed}
	for i := range trainModels {
		w.data = append(w.data, newCorpus(seed, uint64(streamCorpusA+i), 1))
	}
	return w
}

func (w *trainEpoch) setup() error {
	w.systems = w.systems[:0]
	w.first = make([]dynnoffload.EpochReport, len(trainModels))
	w.firstDigest = make([]string, len(trainModels))
	for i, name := range trainModels {
		m, err := dynnoffload.ZooModel(name, defaults.Batch, defaults.Seed)
		if err != nil {
			return err
		}
		sys, err := dynnoffload.NewSystem(m,
			dynnoffload.WithWorkers(2),
			dynnoffload.WithMemoryPressure(defaults.PressureFraction),
			dynnoffload.WithPilotConfig(pilotConfig()))
		if err != nil {
			return fmt.Errorf("train-epoch %s: %w", name, err)
		}
		if _, err := sys.TrainPilot(w.data[i].train); err != nil {
			return fmt.Errorf("train-epoch %s: %w", name, err)
		}
		if _, err := sys.TrainEpoch(w.data[i].test[0]); err != nil {
			return fmt.Errorf("train-epoch %s warm-up: %w", name, err)
		}
		w.systems = append(w.systems, sys)
	}
	return nil
}

// op runs one epoch per model. The mis-prediction cache reaches its fixed
// point after the warm-up epoch (each cache key ends an epoch holding the
// truth of the last sample that used it), so every timed epoch of a model
// must replay the first one exactly.
func (w *trainEpoch) op(i int, sp *spans, parent int) (int, error) {
	items := 0
	for k, sys := range w.systems {
		id := sp.start("dynnoffload.System.TrainEpoch", i, parent)
		rep, err := sys.TrainEpoch(w.data[k].test[0])
		sp.end(id)
		if err != nil {
			return 0, fmt.Errorf("train-epoch %s: %w", trainModels[k], err)
		}
		if rep.Samples != len(w.data[k].test[0]) {
			return 0, fmt.Errorf("train-epoch %s: %d samples reported, %d given", trainModels[k], rep.Samples, len(w.data[k].test[0]))
		}
		d, err := digest(simEpoch(rep))
		if err != nil {
			return 0, err
		}
		switch {
		case w.firstDigest[k] == "":
			w.first[k], w.firstDigest[k] = rep, d
		case d != w.firstDigest[k]:
			return 0, fmt.Errorf("train-epoch %s: op %d's simulated report differs from the first op's", trainModels[k], i)
		}
		items += rep.Samples
	}
	return items, nil
}

// verify replays each model's epoch serially through the facade's
// dynn-offload runner — one worker, on the same engine — and requires the
// aggregate breakdown of the two-worker op. It also records every sample's
// simulated time and compares it with its path's pipelined schedule, which
// a correctly predicted sample achieves.
func (w *trainEpoch) verify() error {
	w.perSampleMS = make([][]float64, len(w.systems))
	w.misses = make([]int, len(w.systems))
	for k, sys := range w.systems {
		runner, err := sys.Runner(dynnoffload.DyNNOffload)
		if err != nil {
			return err
		}
		exs, err := sys.Examples(w.data[k].test[0])
		if err != nil {
			return err
		}
		oracle := core.NewEngine(core.DefaultConfig(sys.Platform()), nil)
		var agg dynnoffload.Breakdown
		for _, ex := range exs {
			bd, err := runner.RunIteration(ex)
			if err != nil {
				return fmt.Errorf("train-epoch %s serial replay: %w", trainModels[k], err)
			}
			agg = agg.Add(bd)
			info := sys.Context().PathByKey(ex.TruthKey)
			if info == nil {
				return fmt.Errorf("train-epoch %s: truth path %q: %w", trainModels[k], ex.TruthKey, dynnoffload.ErrUnknownPath)
			}
			dev := bd.DeviceNS()
			w.perSampleMS[k] = append(w.perSampleMS[k], float64(dev)/1e6)
			if dev > oracle.SimulatePartition(info.Analysis, info.Blocks).DeviceNS() {
				w.misses[k]++
			}
		}
		agg.OverheadNS = 0
		if want := simEpoch(w.first[k]).Breakdown; agg != want {
			return fmt.Errorf("train-epoch %s: 1-worker replay %v differs from the 2-worker op %v", trainModels[k], agg, want)
		}
	}
	return nil
}

// simulated pools both models' epochs for the per-sample figures and
// averages their per-sample quantiles, one model each.
func (w *trainEpoch) simulated() (map[string]float64, error) {
	var dev, samples, mis, miss, p50, p99 float64
	for k := range w.systems {
		dev += float64(w.first[k].Breakdown.DeviceNS())
		samples += float64(w.first[k].Samples)
		mis += float64(w.first[k].Mispredictions)
		miss += float64(w.misses[k])
		p50 += exactQuantile(w.perSampleMS[k], 0.50)
		p99 += exactQuantile(w.perSampleMS[k], 0.99)
	}
	n := float64(len(w.systems))
	return map[string]float64{
		"sim_ms_per_sample": dev / samples / 1e6,
		"mispredict_rate":   mis / samples,
		"sim_p50_ms":        p50 / n,
		"sim_p99_ms":        p99 / n,
		"slo_miss_rate":     miss / samples,
	}, nil
}

func (w *trainEpoch) layers(sp *spans, ops opSpans) (map[string]float64, error) {
	var ins []replayInput
	for k, sys := range w.systems {
		ins = append(ins, replayInput{
			model: sys.Context().Model, plat: sys.Platform(),
			train: w.data[k].train, test: w.data[k].test[0],
			batch: dynnoffload.DefaultServeMaxBatch, workers: 2,
			online: onlineConfig(w.seed), tenants: 2,
		})
	}
	f, err := replayAll(sp, ins)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	f.metrics(m)

	var bd dynnoffload.Breakdown
	var samples, hits int
	var peak float64
	for k, sys := range w.systems {
		r := w.first[k]
		bd = bd.Add(r.Breakdown)
		samples += r.Samples
		hits += r.CacheHits
		peak = max(peak, share(float64(r.Breakdown.PeakGPUBytes), float64(sys.Platform().GPU.MemBytes)))
	}
	breakdownShares(m, bd, samples, 1)
	m["gpusim.peak_mem_share"] = peak
	m["core.mispredict_cache_hit_share"] = share(float64(hits), float64(samples))

	// replayAll averages per-call costs over the models; an op runs every
	// model's held-out set, so each layer runs samples times per op.
	perOp := float64(samples)
	opLedger(m, ops, f, ledgerCounts{examples: perOp, resolves: perOp, simulates: perOp})
	return m, nil
}
