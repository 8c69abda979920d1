package expt

import (
	"testing"

	"dynnoffload/internal/core"
	"dynnoffload/internal/dynn"
)

// TestPipelineEstimateMatchesDES pins Sentinel's closed-form schedule
// against the runtime's own: on every offloading path of every zoo model
// under NewModelBench defaults, PipelineEstimate of the path's planned blocks
// equals the fault-free DES run of the same partition, in total and in
// exposed migration time. Paths that fit on the GPU take the DES's
// no-offload fast path and are skipped.
func TestPipelineEstimateMatchesDES(t *testing.T) {
	opts := DefaultOptions()
	opts.TrainSamples, opts.TestSamples = 1, 1
	var checked int
	for _, entry := range dynn.Zoo() {
		mb, err := NewModelBench(entry, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(core.DefaultConfig(mb.Platform), nil)
		for k, info := range mb.Ctx.Paths {
			if info.Analysis.PeakResidentBytes() <= mb.Platform.GPU.MemBytes {
				continue
			}
			checked++
			total, exposed := info.Analysis.PipelineEstimate(info.Blocks)
			bd := eng.SimulatePartition(info.Analysis, info.Blocks)
			if bd.TotalNS() != total || bd.ExposedXferNS != exposed {
				t.Errorf("%s path %d: estimate total %d exposed %d, DES total %d exposed %d",
					entry.Name, k, total, exposed, bd.TotalNS(), bd.ExposedXferNS)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no offloading path: the comparison would be vacuous")
	}
	t.Logf("%d offloading paths checked", checked)
}
