package nn

import (
	"math"
	"testing"

	"dynnoffload/internal/mathx"
)

func TestActivationValues(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float64
		want float64
	}{
		{LeakyReLU, 2, 2},
		{LeakyReLU, -2, -0.02},
		{ReLU, 2, 2},
		{ReLU, -2, 0},
		{Identity, -3.5, -3.5},
		{Tanh, 0, 0},
		{Sigmoid, 0, 0.5},
	}
	for _, c := range cases {
		if got := c.act.apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v(%v) = %v, want %v", c.act, c.x, got, c.want)
		}
	}
}

// TestActivationDerivNumerical checks deriv() against a finite difference.
func TestActivationDerivNumerical(t *testing.T) {
	const h = 1e-6
	for _, act := range []Activation{LeakyReLU, Tanh, Sigmoid, Identity} {
		for _, x := range []float64{-1.5, -0.2, 0.3, 2.0} {
			y := act.apply(x)
			numeric := (act.apply(x+h) - act.apply(x-h)) / (2 * h)
			analytic := act.deriv(y)
			if math.Abs(numeric-analytic) > 1e-4 {
				t.Errorf("%v deriv at %v: analytic %v vs numeric %v", act, x, analytic, numeric)
			}
		}
	}
}

func TestMLPShapes(t *testing.T) {
	rng := mathx.NewRNG(1)
	m := NewMLP([]int{4, 8, 3}, LeakyReLU, rng)
	if out := m.Layers[len(m.Layers)-1].Out; m.InputSize() != 4 || out != 3 {
		t.Fatalf("sizes: in=%d out=%d", m.InputSize(), out)
	}
	wantParams := 4*8 + 8 + 8*3 + 3
	if m.Params() != wantParams {
		t.Errorf("Params = %d, want %d", m.Params(), wantParams)
	}
	out := m.Forward([]float64{1, 0, -1, 0.5})
	if len(out) != 3 {
		t.Errorf("output width %d", len(out))
	}
}

func TestMLPLearnsLinearMap(t *testing.T) {
	rng := mathx.NewRNG(2)
	m := NewMLP([]int{2, 16, 1}, LeakyReLU, rng)
	// target: y = 2a - b
	var lastLoss float64
	for epoch := 0; epoch < 400; epoch++ {
		lastLoss = 0
		for i := 0; i < 16; i++ {
			a, b := rng.Norm(), rng.Norm()
			lastLoss += m.TrainStep([]float64{a, b}, []float64{2*a - b}, 0.003, 0.9)
		}
	}
	if lastLoss/16 > 0.01 {
		t.Errorf("failed to learn linear map: loss %v", lastLoss/16)
	}
}

func TestMLPLearnsThreshold(t *testing.T) {
	// The pilot's core subtask: a linear decision boundary.
	rng := mathx.NewRNG(3)
	m := NewMLP([]int{3, 16, 1}, LeakyReLU, rng)
	data := make([][4]float64, 300)
	for i := range data {
		x := [3]float64{rng.Norm(), rng.Norm(), rng.Norm()}
		y := 0.0
		if x[0]+0.5*x[1]-x[2] > 0 {
			y = 1
		}
		data[i] = [4]float64{x[0], x[1], x[2], y}
	}
	for epoch := 0; epoch < 150; epoch++ {
		for _, d := range data {
			m.TrainStep(d[:3], d[3:], 0.02, 0.9)
		}
	}
	correct := 0
	for _, d := range data {
		out := m.Forward(d[:3])
		pred := 0.0
		if out[0] > 0.5 {
			pred = 1
		}
		if pred == d[3] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(data)); acc < 0.95 {
		t.Errorf("threshold accuracy %.3f < 0.95", acc)
	}
}

func TestTrainStepReducesLoss(t *testing.T) {
	rng := mathx.NewRNG(4)
	m := NewMLP([]int{2, 8, 2}, LeakyReLU, rng)
	in := []float64{0.5, -0.5}
	target := []float64{1, 0}
	first := m.Loss(in, target)
	for i := 0; i < 50; i++ {
		m.TrainStep(in, target, 0.05, 0)
	}
	if last := m.Loss(in, target); last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := mathx.NewRNG(5)
	m := NewMLP([]int{2, 4, 1}, LeakyReLU, rng)
	c := m.Clone()
	before := c.Forward([]float64{1, 1})[0]
	for i := 0; i < 20; i++ {
		m.TrainStep([]float64{1, 1}, []float64{5}, 0.1, 0)
	}
	if after := c.Forward([]float64{1, 1})[0]; after != before {
		t.Error("training the original changed the clone")
	}
}

func TestGradClipPreventsDivergence(t *testing.T) {
	rng := mathx.NewRNG(6)
	m := NewMLP([]int{2, 64, 2}, LeakyReLU, rng)
	for i := 0; i < 200; i++ {
		loss := m.TrainStep([]float64{100, -100}, []float64{1000, -1000}, 0.05, 0.9)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("diverged at step %d", i)
		}
	}
}

func TestGeneticTunerFindsBest(t *testing.T) {
	cfg := DefaultTunerConfig()
	// Fitness peaks at Hidden=512, LR=0.01, Epochs=10.
	fit := func(g Genome) float64 {
		f := 0.0
		if g.Hidden == 512 {
			f += 3
		}
		if g.LR == 0.01 {
			f += 2
		}
		if g.Epochs == 10 {
			f += 1
		}
		return f
	}
	best, score := Tune(cfg, fit)
	if score < 5 {
		t.Errorf("tuner found %+v (score %v), want near-optimal", best, score)
	}
}

func TestNewMLPPanicsOnShortSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMLP([]int{3}, LeakyReLU, mathx.NewRNG(1))
}

func TestTrainStepFromFreezesEarlyLayers(t *testing.T) {
	rng := mathx.NewRNG(6)
	m := NewMLP([]int{3, 8, 8, 2}, LeakyReLU, rng)
	frozenW := append([]float64(nil), m.Layers[0].W...)
	frozenW = append(frozenW, m.Layers[1].W...)
	headW := append([]float64(nil), m.Layers[2].W...)
	in := []float64{0.5, -0.25, 1}
	target := []float64{1, -1}
	first := m.Loss(in, target)
	head := len(m.Layers) - 1
	for i := 0; i < 60; i++ {
		m.TrainStepFrom(in, target, 0.05, 0.9, head)
	}
	got := append([]float64(nil), m.Layers[0].W...)
	got = append(got, m.Layers[1].W...)
	for i := range got {
		if got[i] != frozenW[i] {
			t.Fatalf("frozen weight %d moved under head-only training", i)
		}
	}
	moved := false
	for i := range headW {
		if m.Layers[head].W[i] != headW[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("head weights never moved")
	}
	if last := m.Loss(in, target); last >= first {
		t.Errorf("head-only training did not reduce loss: %v -> %v", first, last)
	}
}

func TestTrainStepFromZeroMatchesTrainStep(t *testing.T) {
	rng := mathx.NewRNG(7)
	a := NewMLP([]int{2, 6, 2}, LeakyReLU, rng)
	b := a.Clone()
	in := []float64{0.3, -0.8}
	target := []float64{0, 1}
	for i := 0; i < 25; i++ {
		la := a.TrainStep(in, target, 0.05, 0.9)
		lb := b.TrainStepFrom(in, target, 0.05, 0.9, 0)
		if la != lb {
			t.Fatalf("step %d: losses diverged %v vs %v", i, la, lb)
		}
	}
	for li := range a.Layers {
		for i := range a.Layers[li].W {
			if a.Layers[li].W[i] != b.Layers[li].W[i] {
				t.Fatalf("layer %d weight %d diverged", li, i)
			}
		}
	}
}

// Loss returns the MSE of the network on (in, target) without updating.
func (m *MLP) Loss(in, target []float64) float64 {
	out := m.Forward(in)
	var loss float64
	for i, o := range out {
		d := o - target[i]
		loss += d * d
	}
	return loss / float64(len(out))
}
