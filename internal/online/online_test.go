package online

import (
	"errors"
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/mathx"
	"dynnoffload/internal/pilot"
)

// testFixture builds a small trained pilot and an example stream over one
// var-LSTM context.
func testFixture(t *testing.T) (*pilot.Pilot, []*pilot.Example) {
	t.Helper()
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 16, Batch: 1, Seed: 3})
	ctx, err := pilot.NewModelContext(m, gpusim.NewCostModel(gpusim.RTXPlatform()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	exs, err := pilot.BuildExamples(ctx, pilot.FeatureConfig{}, dynn.GenerateSamples(9, 160, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	p := pilot.New(pilot.Config{Neurons: 24, Epochs: 3, Seed: 7})
	p.Train(exs[:100])
	return p, exs
}

func TestMemoryRingWraparound(t *testing.T) {
	_, exs := testFixture(t)
	m := NewMemory(4)
	for i := 0; i < 6; i++ {
		m.Add(exs[i])
	}
	if m.Len() != 4 || m.Cap() != 4 || m.seen != 6 {
		t.Fatalf("Len=%d Cap=%d Seen=%d, want 4/4/6", m.Len(), m.Cap(), m.seen)
	}
	// DROO's seen%capacity rule: entries 4 and 5 overwrote slots 0 and 1.
	want := []*pilot.Example{exs[4], exs[5], exs[2], exs[3]}
	for i, w := range want {
		if m.ents[i] != w {
			t.Errorf("slot %d holds exs[%d]-mismatch", i, i)
		}
	}
}

func TestMemorySampleSeededAndBounded(t *testing.T) {
	_, exs := testFixture(t)
	m := NewMemory(16)
	for i := 0; i < 10; i++ {
		m.Add(exs[i])
	}
	a := m.Sample(mathx.NewRNG(11), 4)
	b := m.Sample(mathx.NewRNG(11), 4)
	if len(a) != 4 {
		t.Fatalf("sample len %d, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed drew different minibatches at %d", i)
		}
	}
	// Without replacement: no duplicates.
	seen := map[*pilot.Example]bool{}
	for _, e := range a {
		if seen[e] {
			t.Fatal("sample drew a duplicate")
		}
		seen[e] = true
	}
	// Oversized requests clamp to the live size.
	if got := m.Sample(mathx.NewRNG(12), 99); len(got) != 10 {
		t.Fatalf("oversized sample len %d, want 10", len(got))
	}
	if got := NewMemory(4).Sample(mathx.NewRNG(13), 2); got != nil {
		t.Fatalf("empty ring sampled %d entries", len(got))
	}
}

func TestNewRequiresTrainedBase(t *testing.T) {
	if _, err := New(Config{Enabled: true}, pilot.New(pilot.Config{Neurons: 8, Epochs: 1, Seed: 1}), 0); !errors.Is(err, pilot.ErrNotTrained) {
		t.Fatalf("New on untrained base: err=%v, want ErrNotTrained", err)
	}
	if _, err := New(Config{Enabled: true}, nil, 0); !errors.Is(err, pilot.ErrNotTrained) {
		t.Fatalf("New on nil base: err=%v, want ErrNotTrained", err)
	}
}

func TestObserveWindows(t *testing.T) {
	p, exs := testFixture(t)
	l, err := New(Config{Enabled: true, ObserveOnly: true, WindowSize: 4}, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 10 observations, mispredicted on every even index: windows close at 4
	// and 8; the trailing partial window stays open.
	for i := 0; i < 10; i++ {
		if _, err := l.Observe(0, exs[i], i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	s := l.Stats()
	if s.Observed != 10 || s.Mispredicts != 5 {
		t.Fatalf("Observed=%d Mispredicts=%d, want 10/5", s.Observed, s.Mispredicts)
	}
	if len(s.WindowRates) != 2 {
		t.Fatalf("windows=%d, want 2", len(s.WindowRates))
	}
	for i, w := range s.WindowRates {
		if w.EndSeq != int64(4*(i+1)) || w.Window != 4 || w.Mispredicts != 2 || w.Rate != 0.5 {
			t.Errorf("window %d = %+v, want end=%d window=4 mis=2 rate=0.5", i, w, 4*(i+1))
		}
	}
}

func TestObserveOnlyNeverRetrains(t *testing.T) {
	p, exs := testFixture(t)
	l, err := New(Config{Enabled: true, ObserveOnly: true, TrainingInterval: 2, MemorySize: 8}, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		stall, err := l.Observe(0, exs[i], true)
		if err != nil {
			t.Fatal(err)
		}
		if stall != 0 {
			t.Fatalf("ObserveOnly charged a %dns stall", stall)
		}
		if l.PilotFor(0) != nil {
			t.Fatal("ObserveOnly PilotFor must stay nil (engine pilot)")
		}
	}
	s := l.Stats()
	if s.Retrains != 0 || s.RetrainNS != 0 {
		t.Fatalf("ObserveOnly retrained: %+v", s)
	}
	if s.MemorySize != 8 || s.MemoryCap != 8 {
		t.Fatalf("replay ring did not fill: %+v", s)
	}
}

func TestRetrainScheduleAndPilotFor(t *testing.T) {
	p, exs := testFixture(t)
	const interval, mb, epochs = 4, 8, 2
	var costNS int64 = 1000
	l, err := New(Config{
		Enabled: true, TrainingInterval: interval, MinibatchSize: mb,
		Epochs: epochs, RetrainCostNS: costNS,
	}, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < interval-1; i++ {
		stall, err := l.Observe(0, exs[i], true)
		if err != nil {
			t.Fatal(err)
		}
		if stall != 0 || l.PilotFor(0) != nil {
			t.Fatalf("retrain fired before the interval (obs %d)", i+1)
		}
	}
	stall, err := l.Observe(0, exs[interval-1], true)
	if err != nil {
		t.Fatal(err)
	}
	// First retrain: ring holds `interval` entries, all sampled.
	if want := costNS * interval * epochs; stall != want {
		t.Fatalf("first retrain stall = %d, want %d", stall, want)
	}
	shared := l.PilotFor(0)
	if shared == nil {
		t.Fatal("PilotFor nil after first retrain")
	}
	if shared == p {
		t.Fatal("learner must refine a clone, not the base pilot")
	}
	if s := l.Stats(); s.Retrains != 1 || s.RetrainNS != stall {
		t.Fatalf("stats after first retrain: %+v", s)
	}
}

func TestAdapterWarmup(t *testing.T) {
	p, exs := testFixture(t)
	l, err := New(Config{
		Enabled: true, PerTenant: true, TrainingInterval: 3,
		AdapterMinExamples: 4, TenantMemorySize: 8, RetrainCostNS: 1,
	}, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Feed tenant 0 only: its adapter warms at 4 observations; tenant 1
	// stays cold and keeps resolving through the shared pilot.
	for i := 0; i < 12; i++ {
		if _, err := l.Observe(0, exs[i], i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	a0, a1 := l.PilotFor(0), l.PilotFor(1)
	if a0 == nil {
		t.Fatal("tenant 0 adapter never warmed")
	}
	if a0 == a1 {
		t.Fatal("cold tenant 1 must not share tenant 0's adapter")
	}
	if a1 != l.shared {
		t.Fatal("cold tenant must fall back to the shared pilot")
	}
	if s := l.Stats(); s.AdapterTenants != 1 {
		t.Fatalf("AdapterTenants = %d, want 1", s.AdapterTenants)
	}
	// Out-of-range tenants degrade to the shared pilot rather than panic.
	if l.PilotFor(-1) != l.shared || l.PilotFor(7) != l.shared {
		t.Fatal("out-of-range tenant must use the shared pilot")
	}
}

// TestLearnerDeterministic pins the subsystem's contract: two learners fed
// the identical observation sequence end with bit-identical refined pilots.
func TestLearnerDeterministic(t *testing.T) {
	p, exs := testFixture(t)
	run := func() *pilot.Pilot {
		l, err := New(Config{
			Enabled: true, PerTenant: true, TrainingInterval: 3,
			MinibatchSize: 8, AdapterMinExamples: 4, Seed: 21,
		}, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, err := l.Observe(i%2, exs[i], i%3 == 0); err != nil {
				t.Fatal(err)
			}
		}
		return l.PilotFor(0)
	}
	a, b := run(), run()
	if a == nil || b == nil {
		t.Fatal("learning never produced a pilot")
	}
	for _, ex := range exs[100:140] {
		ra, err := a.Resolve(ex)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Resolve(ex)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ra.Output {
			if ra.Output[i] != rb.Output[i] {
				t.Fatalf("replayed learners diverged at output dim %d: %v vs %v",
					i, ra.Output[i], rb.Output[i])
			}
		}
		if ra.Path.Key != rb.Path.Key {
			t.Fatalf("replayed learners resolved different paths: %s vs %s",
				ra.Path.Key, rb.Path.Key)
		}
	}
}

func TestDisabledLearnerIsInert(t *testing.T) {
	p, exs := testFixture(t)
	l, err := New(Config{}, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	stall, err := l.Observe(0, exs[0], true)
	if err != nil || stall != 0 {
		t.Fatalf("disabled Observe = (%d, %v)", stall, err)
	}
	if l.Stats() != nil {
		t.Fatal("disabled learner must report nil stats")
	}
	if l.PilotFor(0) != nil {
		t.Fatal("disabled learner must defer to the engine pilot")
	}
	var nilL *Learner
	if nilL.Stats() != nil || nilL.PilotFor(0) != nil {
		t.Fatal("nil learner must be inert")
	}
	if stall, err := nilL.Observe(0, exs[0], true); err != nil || stall != 0 {
		t.Fatalf("nil Observe = (%d, %v)", stall, err)
	}
}
