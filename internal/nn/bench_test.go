package nn

import (
	"testing"

	"dynnoffload/internal/mathx"
)

// BenchmarkTrainStep times one SGD-with-momentum TrainStep of an MLP with
// 107 features in, cycling over 64 fixed random examples so the deltas
// stay non-zero: 64 outputs at 128 and 512 hidden neurons, and the pilot's
// own shape, whose head is MaxBlocks×DescriptorLen = 100 wide.
func BenchmarkTrainStep(b *testing.B) {
	for _, bc := range []struct {
		name  string
		sizes []int
	}{
		{"128", []int{107, 128, 128, 64}},
		{"512", []int{107, 512, 512, 64}},
		{"107-128-128-100", []int{107, 128, 128, 100}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := mathx.NewRNG(5)
			m := NewMLP(bc.sizes, LeakyReLU, rng)
			nIn, nOut := bc.sizes[0], bc.sizes[len(bc.sizes)-1]
			ins, targets := make([][]float64, 64), make([][]float64, 64)
			for i := range ins {
				ins[i], targets[i] = make([]float64, nIn), make([]float64, nOut)
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
