package pilot

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
)

// smallPilot trains a 24-neuron pilot on 40 var-LSTM examples and returns
// it with those and 20 held-out examples.
func smallPilot(t *testing.T) (p *Pilot, train, held []*Example) {
	t.Helper()
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 2, Seed: 2})
	ctx, err := NewModelContext(m, gpusim.NewCostModel(gpusim.RTXPlatform()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	exs, err := BuildExamples(ctx, FeatureConfig{}, dynn.GenerateSamples(8, 60, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	p = New(Config{Neurons: 24, Epochs: 2, Seed: 3})
	p.Train(exs[:40])
	return p, exs[:40], exs[40:]
}

// inferAll runs inferNorm on every example through every base type's MLP
// and returns copies of the normalized outputs, in that order.
func inferAll(p *Pilot, exs []*Example) [][]float64 {
	var outs [][]float64
	for _, e := range exs {
		for b := 0; b < dynn.NumBaseTypes; b++ {
			pred, buf := p.inferNorm(dynn.BaseType(b), e.Features)
			outs = append(outs, append([]float64(nil), pred...))
			p.scratch.Put(buf)
		}
	}
	return outs
}

func equalBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// TestRefineMovesOutputsAndClonesStayIsolated: each of the four Refine
// variants (momentum 0.9 or 0, all layers or HeadOnly) moves the inference
// outputs on held-out examples, and Clone's copy-on-write sharing isolates
// both ways: a clone's Refine leaves the original's outputs as they were,
// and the original's Refine its clones', whichever trains first.
func TestRefineMovesOutputsAndClonesStayIsolated(t *testing.T) {
	p, train, held := smallPilot(t)

	refine := func(t *testing.T, p *Pilot, when string, rc RefineConfig) [][]float64 {
		t.Helper()
		before := inferAll(p, held)
		if _, err := p.Refine(train[:16], rc); err != nil {
			t.Fatal(err)
		}
		after := inferAll(p, held)
		moved := false
		for i := range after {
			moved = moved || equalBits(after[i], before[i]) != nil
		}
		if !moved {
			t.Fatalf("%s moved no output", when)
		}
		return after
	}
	var prev [][]float64
	for i, rc := range []RefineConfig{
		{LR: 0.005, Momentum: 0.9, Epochs: 2},
		{LR: 0.005, Momentum: 0.9, Epochs: 2, HeadOnly: true},
		{LR: 0.005, Momentum: 0, Epochs: 2},
		{LR: 0.005, Momentum: 0, Epochs: 2, HeadOnly: true},
	} {
		rc.Seed = uint64(i)
		prev = refine(t, p, fmt.Sprintf("Refine(momentum %v, HeadOnly %v)", rc.Momentum, rc.HeadOnly), rc)
	}

	c := p.Clone()
	cloned := refine(t, c, "the clone's Refine", RefineConfig{LR: 0.005, Momentum: 0.9, Epochs: 2, Seed: 9})
	for i, out := range inferAll(p, held) {
		if err := equalBits(out, prev[i]); err != nil {
			t.Fatalf("the clone's Refine changed the original's output %d: %v", i, err)
		}
	}
	d := p.Clone()
	refine(t, p, "the original's Refine", RefineConfig{LR: 0.005, Momentum: 0.9, Epochs: 2, Seed: 10, HeadOnly: true})
	for _, k := range []struct {
		name string
		q    *Pilot
		want [][]float64
	}{{"refined clone", c, cloned}, {"fresh clone", d, prev}} {
		for i, out := range inferAll(k.q, held) {
			if err := equalBits(out, k.want[i]); err != nil {
				t.Fatalf("the original's Refine changed the %s's output %d: %v", k.name, i, err)
			}
		}
	}
}

// TestClonesRefineConcurrently takes and refines clones of one pilot on
// several goroutines while the pilot itself resolves. Each clone must end
// exactly where the same Refine of a serial clone ends, and the pilot must
// not move. Under -race this also checks that the copy-on-write sharing
// lets no two of them touch the same weights.
func TestClonesRefineConcurrently(t *testing.T) {
	p, train, held := smallPilot(t)
	before := inferAll(p, held)
	const clones = 4
	rc := func(i int) RefineConfig {
		return RefineConfig{LR: 0.005, Momentum: 0.9, Epochs: 2, Seed: uint64(i), HeadOnly: i%2 == 1}
	}
	want := make([][][]float64, clones)
	for i := range want {
		c := p.Clone()
		if _, err := c.Refine(train[:16], rc(i)); err != nil {
			t.Fatal(err)
		}
		want[i] = inferAll(c, held)
	}

	got := make([][][]float64, clones)
	errs := make([]error, clones)
	var wg sync.WaitGroup
	for i := 0; i < clones; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := p.Clone()
			if _, errs[i] = c.Refine(train[:16], rc(i)); errs[i] == nil {
				got[i] = inferAll(c, held)
			}
		}(i)
	}
	for _, e := range held {
		if _, err := p.Resolve(e); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("clone %d: %v", i, errs[i])
		}
		for j := range got[i] {
			if err := equalBits(got[i][j], want[i][j]); err != nil {
				t.Fatalf("clone %d, output %d: concurrent vs serial: %v", i, j, err)
			}
		}
	}
	for j, out := range inferAll(p, held) {
		if err := equalBits(out, before[j]); err != nil {
			t.Fatalf("the clones' Refines moved the original's output %d: %v", j, err)
		}
	}
}

// TestCloneLeavesMomentumWithItsPilot: a pilot keeps its momentum
// velocities when it is cloned, and a clone starts without any. After the
// same Refine, a cloned pilot equals an identical pilot that was never
// cloned, and the clone equals the pilot reloaded from its saved bytes
// (a loaded pilot has no velocities either), bit for bit.
func TestCloneLeavesMomentumWithItsPilot(t *testing.T) {
	p, train, held := smallPilot(t)
	twin, _, _ := smallPilot(t)
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	// The clone trains first, so it is the first to copy the shared MLP.
	c := p.Clone()
	rc := RefineConfig{LR: 0.005, Momentum: 0.9, Epochs: 2, Seed: 4}
	for _, q := range []*Pilot{c, p, twin, loaded} {
		if _, err := q.Refine(train[:16], rc); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []struct {
		name      string
		got, want *Pilot
	}{{"cloned pilot vs its twin", p, twin}, {"clone vs reloaded pilot", c, loaded}} {
		want := inferAll(k.want, held)
		for i, out := range inferAll(k.got, held) {
			if err := equalBits(out, want[i]); err != nil {
				t.Fatalf("%s: output %d: %v", k.name, i, err)
			}
		}
	}
}
