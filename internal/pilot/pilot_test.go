package pilot

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/sentinel"
)

func TestFeatureWidths(t *testing.T) {
	fc := FeatureConfig{}
	if fc.Width() != dynn.EmbedDim+DefaultSegments*9+dynn.NumBaseTypes {
		t.Errorf("idiom width = %d", fc.Width())
	}
	gid := FeatureConfig{Repr: GlobalIDRepr}
	if gid.Width() <= fc.Width() {
		t.Error("global-ID representation must be wider (the Fig 11 point)")
	}
}

func TestEncode(t *testing.T) {
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 16, Batch: 1, Seed: 1})
	fc := FeatureConfig{}
	arch := fc.ArchFeatures(m.Static())
	s := dynn.GenerateSamples(1, 1, 8, 16)[0]
	feats := fc.Encode(s.Embed, arch, m.Base())
	if len(feats) != fc.Width() {
		t.Fatalf("feature width %d != %d", len(feats), fc.Width())
	}
	// One-hot base type at the tail.
	tail := feats[len(feats)-dynn.NumBaseTypes:]
	var ones int
	for _, v := range tail {
		if v == 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Errorf("base-type one-hot has %d ones", ones)
	}
}

func TestPathKey(t *testing.T) {
	r := &graph.Resolved{
		Decisions: []int{1, 0, 2},
		Reached:   []bool{true, false, true},
	}
	if got := PathKey(r); got != "1,-,2," {
		t.Errorf("PathKey = %q", got)
	}
}

func TestModelContextLabels(t *testing.T) {
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 2, Seed: 2})
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	ctx, err := NewModelContext(m, cm, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Paths) != 8 {
		t.Fatalf("paths = %d, want 8", len(ctx.Paths))
	}
	seen := map[string]bool{}
	for _, info := range ctx.Paths {
		if len(info.Label) != DefaultMaxBlocks*sentinel.DescriptorLen {
			t.Fatalf("label width %d", len(info.Label))
		}
		if len(info.Blocks) == 0 {
			t.Fatal("no blocks")
		}
		if err := sentinel.Validate(info.Blocks, info.Analysis.NumOps()); err != nil {
			t.Fatal(err)
		}
		k := ""
		for _, v := range info.Label {
			k += string(rune(int(v)%93 + 33))
		}
		if seen[k] {
			t.Error("duplicate label across paths")
		}
		seen[k] = true
		if ctx.PathByKey(info.Key) != info {
			t.Error("PathByKey lookup broken")
		}
	}
}

func TestClampBlocks(t *testing.T) {
	blocks := []sentinel.Block{{Start: 0, End: 2}, {Start: 2, End: 4}, {Start: 4, End: 6}, {Start: 6, End: 9}}
	clamped := clampBlocks(blocks, 2)
	if len(clamped) != 2 {
		t.Fatalf("len = %d", len(clamped))
	}
	if clamped[1].End != 9 || clamped[0] != blocks[0] {
		t.Errorf("clamp lost coverage: %v", clamped)
	}
	same := clampBlocks(blocks, 10)
	if len(same) != 4 {
		t.Error("no-op clamp changed blocks")
	}
}

func TestTruthPath(t *testing.T) {
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 2, Seed: 2})
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	ctx, err := NewModelContext(m, cm, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range dynn.GenerateSamples(3, 20, 8, 32) {
		info, err := ctx.TruthPath(s)
		if err != nil || info == nil {
			t.Fatalf("TruthPath: %v", err)
		}
	}
}

func TestUntrainedPilotErrors(t *testing.T) {
	p := New(Config{Neurons: 8})
	if p.Trained() {
		t.Fatal("fresh pilot reports trained")
	}
	if _, _, err := p.Predict(dynn.CNN, make([]float64, p.Cfg.Features.Width())); !errors.Is(err, ErrNotTrained) {
		t.Errorf("Predict err = %v, want ErrNotTrained", err)
	}
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 2, Seed: 1})
	ctx, err := NewModelContext(m, gpusim.NewCostModel(gpusim.RTXPlatform()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	exs, err := BuildExamples(ctx, FeatureConfig{}, dynn.GenerateSamples(4, 10, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Resolve(exs[0]); !errors.Is(err, ErrNotTrained) {
		t.Errorf("Resolve err = %v, want ErrNotTrained", err)
	}
	if _, err := p.Evaluate(exs); !errors.Is(err, ErrNotTrained) {
		t.Errorf("Evaluate err = %v, want ErrNotTrained", err)
	}
	if err := p.Save(io.Discard); !errors.Is(err, ErrNotTrained) {
		t.Errorf("Save err = %v, want ErrNotTrained", err)
	}
}

func TestGenerализationLeaveOut(t *testing.T) {
	// Training on one model and evaluating on another with the SAME base
	// type exercises the three-MLP routing; accuracy will be poor (labels of
	// an unseen architecture) but the pipeline must not fail.
	mA := dynn.NewTreeLSTM(dynn.TreeLSTMConfig{Levels: 4, Hidden: 32, SeqLen: 8, Batch: 2, Seed: 1})
	mB := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 2, Seed: 1})
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	ctxA, _ := NewModelContext(mA, cm, 0, 0)
	ctxB, _ := NewModelContext(mB, cm, 0, 0)
	samples := dynn.GenerateSamples(4, 300, 8, 32)
	exA, _ := BuildExamples(ctxA, FeatureConfig{}, samples[:200])
	exB, _ := BuildExamples(ctxB, FeatureConfig{}, samples[200:])
	p := New(Config{Neurons: 32, Epochs: 4, Seed: 1})
	p.Train(exA)
	ev, err := p.Evaluate(exB)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0 || ev.Accuracy > 1 || ev.Mispredictions > len(exB) {
		t.Errorf("evaluation out of range: acc=%v mis=%d", ev.Accuracy, ev.Mispredictions)
	}
}

func TestPilotSaveLoadRoundTrip(t *testing.T) {
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 2, Seed: 2})
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	ctx, err := NewModelContext(m, cm, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	samples := dynn.GenerateSamples(8, 300, 8, 32)
	exs, _ := BuildExamples(ctx, FeatureConfig{}, samples)
	p := New(Config{Neurons: 32, Epochs: 5, Seed: 9})
	p.Train(exs[:250])

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions after the round trip.
	for _, e := range exs[250:260] {
		a, _, err := p.Predict(e.Base, e.Features)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := q.Predict(e.Base, e.Features)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("prediction diverged after load at dim %d", i)
			}
		}
		ra, err := p.Resolve(e)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := q.Resolve(e)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Path.Key != rb.Path.Key {
			t.Fatal("resolution diverged after load")
		}
	}
	// Untrained pilots refuse to save.
	if err := New(Config{Neurons: 8}).Save(&buf); err == nil {
		t.Error("untrained Save must fail")
	}
	// Corrupt input fails cleanly.
	if _, err := Load(bytes.NewBufferString("{")); err == nil {
		t.Error("corrupt Load must fail")
	}
}

// TestVersionAdvancesOnWeightUpdates: Train and every Refine that updates
// weights advance the version a cached Resolution is checked against; an
// empty Refine, which updates nothing, does not.
func TestVersionAdvancesOnWeightUpdates(t *testing.T) {
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 2, Seed: 3})
	ctx, err := NewModelContext(m, gpusim.NewCostModel(gpusim.RTXPlatform()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	exs, err := BuildExamples(ctx, FeatureConfig{}, dynn.GenerateSamples(5, 40, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Neurons: 16, Epochs: 2, Seed: 4})
	v0 := p.Version()
	p.Train(exs)
	v1 := p.Version()
	if v1 == v0 {
		t.Fatal("Train did not advance the version")
	}
	if _, err := p.Refine(nil, RefineConfig{LR: 0.01}); err != nil {
		t.Fatal(err)
	}
	if p.Version() != v1 {
		t.Error("an empty Refine advanced the version")
	}
	if _, err := p.Refine(exs[:8], RefineConfig{LR: 0.01}); err != nil {
		t.Fatal(err)
	}
	if p.Version() == v1 {
		t.Error("Refine did not advance the version")
	}
}

// Predict runs one inference outside Resolve: it returns the denormalized
// label vector (the execution-block descriptor rows) and the measured
// inference latency. It fails with ErrNotTrained before Train.
func (p *Pilot) Predict(base dynn.BaseType, features []float64) ([]float64, time.Duration, error) {
	if !p.Trained() {
		return nil, 0, fmt.Errorf("pilot: Predict before Train: %w", ErrNotTrained)
	}
	sw := obsv.StartTimer()
	raw, buf := p.inferNorm(base, features)
	out := make([]float64, len(raw))
	denormalize(raw, p.labelMean, p.labelStd, out)
	p.scratch.Put(buf)
	return out, sw.Elapsed(), nil
}
