package expt

import (
	"fmt"

	"dynnoffload/internal/baselines"
	"dynnoffload/internal/core"
	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/sentinel"
	"dynnoffload/internal/trace"
)

// TableIII reproduces the maximum-batch-size study (§VI-B, Table III): for a
// var-BERT that nearly fills the GPU at batch 1, find the largest batch each
// system trains within a 200% runtime-overhead budget relative to ideal
// in-memory compute. Paper: UVM 1.17x, DTR 1.7x, DyNN-Offload 3.6x vs
// unmodified PyTorch.
func TableIII(layers, hidden, seqLen int) (*Table, error) {
	if layers == 0 {
		layers = 48
	}
	if hidden == 0 {
		hidden = 1024
	}
	if seqLen == 0 {
		seqLen = 512
	}
	plat := gpusim.A100Platform()
	const maxOverhead = 2.0 // 200%

	type probe struct {
		an    *sentinel.Analysis
		ideal int64 // pure compute ns
	}
	probes := map[int]probe{}
	buildProbe := func(batch int) (probe, error) {
		if p, ok := probes[batch]; ok {
			return p, nil
		}
		m := dynn.NewVarBERT(dynn.VarBERTConfig{
			Layers: layers, Hidden: hidden, SeqLen: seqLen, Batch: batch, Seed: 1,
		})
		r, err := graph.Resolve(m.Static(), make([]int, m.Static().NumSites))
		if err != nil {
			return probe{}, fmt.Errorf("table3: batch %d: %w", batch, err)
		}
		it := graph.ExpandTraining(m.Registry(), r, m.WeightStates(), true)
		cm := gpusim.NewCostModel(plat)
		tr := trace.FromIteration(m.Name(), it, cm)
		an := sentinel.NewAnalysis(tr, cm)
		p := probe{an: an, ideal: an.TotalComputeNS()}
		probes[batch] = p
		return p, nil
	}

	timeFor := func(system string, batch int) (int64, error) {
		p, err := buildProbe(batch)
		if err != nil {
			return 0, err
		}
		switch system {
		case "pytorch":
			bd, err := baselines.PyTorch(p.an, plat)
			return bd.TotalNS(), err
		case "uvm":
			bd, err := baselines.UVM(p.an, plat, baselines.DefaultUVMConfig())
			return bd.TotalNS(), err
		case "dtr":
			bd, err := baselines.DTR(p.an, plat, baselines.DefaultDTRConfig())
			return bd.TotalNS(), err
		case "dynn-offload":
			total := p.an.Trace.TotalBytes()
			if total > plat.GPU.MemBytes+plat.CPUMemBytes {
				return 0, fmt.Errorf("exceeds CPU+GPU memory")
			}
			blocks := p.an.Partition(plat.GPU.MemBytes / 2)
			if blocks == nil {
				return 0, fmt.Errorf("op exceeds work buffer")
			}
			eng := core.NewEngine(core.DefaultConfig(plat), nil)
			bd := eng.SimulatePartition(p.an, blocks)
			return bd.TotalNS(), nil
		}
		return 0, fmt.Errorf("unknown system %q", system)
	}

	// maxBatch binary-searches the largest feasible batch. Probe-construction
	// errors (a broken model graph) abort the table; capacity errors from the
	// systems under test just mark that batch infeasible.
	maxBatch := func(system string) (int, error) {
		best := 0
		lo, hi := 1, 512
		for lo <= hi {
			mid := (lo + hi) / 2
			p, err := buildProbe(mid)
			if err != nil {
				return 0, err
			}
			t, err := timeFor(system, mid)
			ok := err == nil && float64(t) <= float64(p.ideal)*(1+maxOverhead)
			if ok {
				best = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		return best, nil
	}

	t := &Table{
		Title:  "Table III — largest batch size on A100-80GB (runtime overhead <= 200%)",
		Header: []string{"system", "max batch", "vs pytorch"},
	}
	base := 0
	for _, system := range []string{"pytorch", "uvm", "dtr", "dynn-offload"} {
		b, err := maxBatch(system)
		if err != nil {
			return nil, err
		}
		if system == "pytorch" {
			base = b
		}
		rel := txt("-")
		if base > 0 {
			rel = val("%.2fx", float64(b)/float64(base))
		}
		t.addRow(txt(system), val("%d", b), rel)
	}
	t.Notes = append(t.Notes, "paper: UVM 1.17x, DTR 1.7x, DyNN-Offload 3.6x",
		fmt.Sprintf("model: var-BERT %d layers, hidden %d, seq %d", layers, hidden, seqLen))
	return t, nil
}
