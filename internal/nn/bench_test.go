package nn

import (
	"fmt"
	"testing"

	"dynnoffload/internal/mathx"
)

// BenchmarkTrainStep times one SGD-with-momentum TrainStep of a pilot-shaped
// MLP (107 features in, 64 outputs) at 128 and 512 hidden neurons, cycling
// over 64 fixed random examples so the deltas stay non-zero.
func BenchmarkTrainStep(b *testing.B) {
	for _, neurons := range []int{128, 512} {
		b.Run(fmt.Sprint(neurons), func(b *testing.B) {
			rng := mathx.NewRNG(5)
			m := NewMLP([]int{107, neurons, neurons, 64}, LeakyReLU, rng)
			ins, targets := make([][]float64, 64), make([][]float64, 64)
			for i := range ins {
				ins[i], targets[i] = make([]float64, 107), make([]float64, 64)
				rng.NormVec(ins[i], 1)
				rng.NormVec(targets[i], 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TrainStep(ins[i%64], targets[i%64], 0.001, 0.9)
			}
		})
	}
}
