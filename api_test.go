package dynnoffload

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow.
func TestPublicAPIQuickstart(t *testing.T) {
	model := NewTreeLSTM(TreeLSTMConfig{Levels: 4, Hidden: 64, SeqLen: 8, Batch: 4, Seed: 1})
	plat := RTXPlatform().WithMemory(MiB(16))

	sys, err := NewSystem(model,
		WithPlatform(plat),
		WithPilotConfig(PilotConfig{Neurons: 48, Epochs: 6, Seed: 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	corpus := GenerateSamples(5, 500, 8, 32)
	if _, err := sys.TrainPilot(corpus[:400]); err != nil {
		t.Fatal(err)
	}
	acc, mis, err := sys.PilotAccuracy(corpus[400:450])
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 || mis < 0 {
		t.Errorf("bad accuracy report: %v %d", acc, mis)
	}
	rep, err := sys.TrainEpoch(corpus[450:])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 50 || rep.Breakdown.TotalNS() <= 0 {
		t.Errorf("bad epoch report: %+v", rep)
	}

	// Baselines run on the same system through the runner registry.
	sample := corpus[499]
	sampleExs, err := sys.Examples(corpus[499:])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{PyTorch, UVM, DTR} {
		r, err := sys.Runner(name)
		if err != nil {
			t.Fatalf("Runner(%q): %v", name, err)
		}
		if _, err := r.RunIteration(sampleExs[0]); err != nil {
			t.Logf("%s: %v (infeasibility is a valid outcome)", name, err)
		}
	}
	if _, err := sys.Runner("nope"); !errors.Is(err, ErrUnknownRunner) {
		t.Errorf("unknown system: err = %v, want ErrUnknownRunner", err)
	}

	tr, err := sys.Trace(sample)
	if err != nil || len(tr.Records) == 0 {
		t.Fatalf("Trace: %v", err)
	}
	blocks, err := sys.Blocks(sample)
	if err != nil || len(blocks) == 0 {
		t.Fatalf("Blocks: %v", err)
	}
}

// TestRunnerInterface: every registered policy runs through the uniform
// Runner interface, and the registry covers the paper's systems.
func TestRunnerInterface(t *testing.T) {
	model := NewTreeLSTM(TreeLSTMConfig{Levels: 4, Hidden: 64, SeqLen: 8, Batch: 4, Seed: 1})
	sys, err := NewSystem(model,
		WithPlatform(RTXPlatform().WithMemory(MiB(16))),
		WithPilotConfig(PilotConfig{Neurons: 48, Epochs: 6, Seed: 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	corpus := GenerateSamples(9, 220, 8, 32)
	if _, err := sys.TrainPilot(corpus[:200]); err != nil {
		t.Fatal(err)
	}
	exs, err := sys.Examples(corpus[200:])
	if err != nil {
		t.Fatal(err)
	}

	names := RunnerNames()
	joined := strings.Join(names, ",")
	for _, want := range []string{"dynn-offload", "pytorch", "uvm", "dtr", "zero-offload"} {
		if !strings.Contains(joined, want) {
			t.Errorf("registry missing %q: %v", want, names)
		}
	}
	for _, name := range names {
		r, err := sys.Runner(name)
		if err != nil {
			t.Fatalf("Runner(%q): %v", name, err)
		}
		if r.Name() != name {
			t.Errorf("Name() = %q, want %q", r.Name(), name)
		}
		bd, err := r.RunIteration(exs[0])
		if err != nil {
			t.Logf("%s: %v (infeasibility is a valid outcome)", name, err)
			continue
		}
		if bd.TotalNS() <= 0 {
			t.Errorf("%s: zero simulated time", name)
		}
	}

	// Memoization: same runner instance per system.
	a, _ := sys.Runner("pytorch")
	b, _ := sys.Runner("pytorch")
	if a != b {
		t.Error("Runner not memoized per system")
	}
}

// TestSentinelErrors: failures surface as typed errors callers can match.
func TestSentinelErrors(t *testing.T) {
	model := NewVarLSTM(VarLSTMConfig{Hidden: 16, Batch: 1, Seed: 1})
	sys, err := NewSystem(model, WithPlatform(RTXPlatform()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TrainEpoch(GenerateSamples(1, 2, 8, 16)); !errors.Is(err, ErrPilotNotTrained) {
		t.Errorf("TrainEpoch err = %v, want ErrPilotNotTrained", err)
	}
	if _, _, err := sys.PilotAccuracy(GenerateSamples(1, 2, 8, 16)); !errors.Is(err, ErrPilotNotTrained) {
		t.Errorf("PilotAccuracy err = %v, want ErrPilotNotTrained", err)
	}
	if r, err := sys.Runner(DyNNOffload); err != nil {
		t.Fatal(err)
	} else {
		exs, err := sys.Examples(GenerateSamples(1, 1, 8, 16))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunIteration(exs[0]); !errors.Is(err, ErrPilotNotTrained) {
			t.Errorf("offload runner err = %v, want ErrPilotNotTrained", err)
		}
	}
	if _, err := NewSystem(nil); !errors.Is(err, ErrModelRequired) {
		t.Errorf("NewSystem(nil) err = %v, want ErrModelRequired", err)
	}
	if _, err := sys.Runner("no-such-policy"); !errors.Is(err, ErrUnknownRunner) {
		t.Errorf("Runner err = %v, want ErrUnknownRunner", err)
	}
}

// TestSystemDefaults: an unset platform defaults to RTX.
func TestSystemDefaults(t *testing.T) {
	model := NewVarLSTM(VarLSTMConfig{Hidden: 16, Batch: 1, Seed: 1})
	sys, err := NewSystem(model)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Context() == nil {
		t.Error("no model context")
	}
	if sys.cfg.Platform.GPU.MemBytes != RTXPlatform().GPU.MemBytes {
		t.Errorf("default platform = %+v", sys.cfg.Platform.GPU)
	}
}

// TestParallelTrainEpoch: WithWorkers fans the public epoch API out across
// the parallel runtime with identical aggregates, and the observability
// surface emits valid JSONL.
func TestParallelTrainEpoch(t *testing.T) {
	model := NewTreeLSTM(TreeLSTMConfig{Levels: 4, Hidden: 64, SeqLen: 8, Batch: 4, Seed: 1})
	build := func(workers int) *System {
		sys, err := NewSystem(model,
			WithPlatform(RTXPlatform().WithMemory(MiB(16))),
			WithPilotConfig(PilotConfig{Neurons: 48, Epochs: 6, Seed: 3}),
			WithWorkers(workers),
		)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	corpus := GenerateSamples(5, 460, 8, 32)

	serial := build(0)
	if _, err := serial.TrainPilot(corpus[:400]); err != nil {
		t.Fatal(err)
	}
	want, err := serial.TrainEpoch(corpus[400:])
	if err != nil {
		t.Fatal(err)
	}

	par := build(4)
	if _, err := par.TrainPilot(corpus[:400]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := NewRecorder("api-test", 4, NewJSONLSink(&buf))
	got, err := par.TrainEpochStats(corpus[400:], rec)
	if err != nil {
		t.Fatal(err)
	}
	stats := rec.Finish()

	if got.Samples != want.Samples || got.Mispredictions != want.Mispredictions ||
		got.CacheHits != want.CacheHits ||
		got.Breakdown.ComputeNS != want.Breakdown.ComputeNS ||
		got.Breakdown.H2DBytes != want.Breakdown.H2DBytes {
		t.Errorf("parallel epoch diverges:\ngot  %+v\nwant %+v", got, want)
	}
	if stats.Samples != int64(got.Samples) || stats.SamplesPerSec <= 0 {
		t.Errorf("bad run stats: %+v", stats)
	}
	if cs := par.engine.CacheStats(); cs.Hits != int64(got.CacheHits) {
		t.Errorf("cache stats inconsistent: %+v vs report %+v", cs, got)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("invalid JSONL event %q: %v", line, err)
		}
	}
}

func TestZooRoundTrip(t *testing.T) {
	if len(Zoo()) != 9 {
		t.Errorf("zoo size %d", len(Zoo()))
	}
	m, err := ZooModel("AlphaFold", 1, 1)
	if err != nil || m.Name() != "AlphaFold" {
		t.Fatalf("ZooModel: %v", err)
	}
}
