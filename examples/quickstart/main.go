// Quickstart: train a Tree-LSTM larger than (simulated) GPU memory with
// DyNN-Offload, and compare against unmodified in-memory training, UVM, and
// DTR.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dynnoffload"
)

func main() {
	// 1. A dynamic model: a Tree-LSTM whose composition order (and hence
	// operator stream) depends on each input sentence.
	model := dynnoffload.NewTreeLSTM(dynnoffload.TreeLSTMConfig{
		Levels: 6, Hidden: 256, SeqLen: 16, Batch: 8, Seed: 1,
	})
	fmt.Printf("model: %s, %.2fM params, %d MiB training state\n",
		model.Name(), float64(dynnoffload.ParamCount(model))/1e6, dynnoffload.StateBytes(model)>>20)

	// 2. A platform whose GPU is deliberately too small for the model, so
	// tensors must live in CPU memory and stream over PCIe.
	plat := dynnoffload.RTXPlatform().WithMemory(dynnoffload.MiB(32))

	sys, err := dynnoffload.NewSystem(model,
		dynnoffload.WithPlatform(plat),
		dynnoffload.WithPilotConfig(dynnoffload.PilotConfig{Neurons: 128, Epochs: 12, Seed: 7}),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train the pilot model offline (§IV-D): it learns to resolve the
	// Tree-LSTM's control flow from the input sample and predict the
	// execution-block partition that hides tensor migration.
	corpus := dynnoffload.GenerateSamples(11, 2400, 8, 48)
	trainSet, testSet := corpus[:2000], corpus[2000:]
	res, err := sys.TrainPilot(trainSet)
	if err != nil {
		log.Fatal(err)
	}
	acc, mispred, _ := sys.PilotAccuracy(testSet)
	fmt.Printf("pilot: trained on %d samples in %v; accuracy %.3f (%d mis-predictions on %d held-out samples)\n",
		res.TrainedOn, res.WallClock.Round(1e6), acc, mispred, len(testSet))

	// 4. Simulate a training epoch under DyNN-Offload.
	rep, err := sys.TrainEpoch(testSet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynn-offload epoch: %s\n", rep.Breakdown)

	// 5. Compare one iteration against the baselines through System.Runner.
	sample := testSet[0]
	exs, err := sys.Examples([]*dynnoffload.Sample{sample})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{dynnoffload.PyTorch, dynnoffload.UVM, dynnoffload.DTR} {
		r, err := sys.Runner(name)
		if err != nil {
			log.Fatal(err)
		}
		bd, err := r.RunIteration(exs[0])
		if err != nil {
			fmt.Printf("%-12s cannot train: %v\n", name, err)
			continue
		}
		fmt.Printf("%-12s %.3f ms/iter\n", name, float64(bd.TotalNS())/1e6)
	}
	blocks, _ := sys.Blocks(sample)
	fmt.Printf("execution blocks for this sample: %d\n", len(blocks))
}
