package expt

import (
	"errors"
	"fmt"

	"dynnoffload/internal/baselines"
)

// fig7Systems are the systems compared in Fig 7/8.
var fig7Systems = []string{"uvm", "dtr", "zero", "dynn-offload"}

// Fig7 reproduces the one-epoch training-time comparison (Fig 7): every zoo
// model under UVM, DTR, ZeRO-Offload, and DyNN-Offload, under memory
// pressure. Paper observations: UVM worst (on-demand page migration);
// DyNN-Offload beats DTR by ~35% on average; ZeRO works only on static NNs
// (where DyNN-Offload still wins ~33% via better partitioning).
func Fig7(wb *Workbench) *Table {
	t := &Table{
		Title:  "Fig 7 — one-epoch training time (ms, simulated) under memory pressure",
		Header: []string{"model", "uvm", "dtr", "zero-offload", "dynn-offload", "dtr/offload", "uvm/offload"},
	}
	var sumDTRRatio, sumUVMRatio float64
	var nRatio, nUVMRatio int
	for _, mb := range wb.Models {
		row := []string{mb.Entry.Name}
		times := map[string]int64{}
		for _, sys := range fig7Systems {
			bd, err := wb.systemEpoch(mb, sys)
			if err != nil {
				var oom *baselines.ErrOOM
				switch {
				case errors.Is(err, baselines.ErrDynamicModel):
					row = append(row, "n/a(dynamic)")
				case errors.As(err, &oom):
					row = append(row, "OOM")
				default:
					row = append(row, "err")
				}
				continue
			}
			times[sys] = bd.TotalNS()
			row = append(row, ms(bd.TotalNS()))
		}
		if times["dynn-offload"] > 0 && times["dtr"] > 0 {
			row = append(row, ratio(times["dtr"], times["dynn-offload"]))
			sumDTRRatio += float64(times["dtr"]) / float64(times["dynn-offload"])
			nRatio++
		} else {
			row = append(row, "-")
		}
		if times["dynn-offload"] > 0 && times["uvm"] > 0 {
			row = append(row, ratio(times["uvm"], times["dynn-offload"]))
			sumUVMRatio += float64(times["uvm"]) / float64(times["dynn-offload"])
			nUVMRatio++
		} else {
			row = append(row, "-")
		}
		t.Rows = append(t.Rows, row)
	}
	if nRatio > 0 && nUVMRatio > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"mean DTR/DyNN-Offload = %.2fx (paper: ~1.35x), mean UVM/DyNN-Offload = %.2fx (paper: UVM worst in almost all cases)",
			sumDTRRatio/float64(nRatio), sumUVMRatio/float64(nUVMRatio)))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"GPU scaled to %.0f%% of each model's footprint (pressure regime); epoch = %d samples",
		wb.Opts.PressureFraction*100, wb.Opts.TestSamples))
	return t
}

// Fig8 reproduces the training-time breakdown (Fig 8): computation, exposed
// migration, rematerialization, fault handling, and policy overhead per
// system. Paper observations: UVM spends up to ~55% on migration (Tree-CNN)
// and ~40% (UGAN); DTR's recomputation inflates compute (1.7x on AlphaFold);
// DyNN-Offload hides migration.
func Fig8(wb *Workbench) *Table {
	t := &Table{
		Title:  "Fig 8 — training-time breakdown (% of total)",
		Header: []string{"model", "system", "compute", "exposed-migration", "remat", "fault", "overhead"},
	}
	for _, mb := range wb.Models {
		if !mb.Entry.Dynamic {
			continue
		}
		for _, sys := range []string{"uvm", "dtr", "dynn-offload"} {
			bd, err := wb.systemEpoch(mb, sys)
			if err != nil {
				t.Rows = append(t.Rows, []string{mb.Entry.Name, sys, "-", "-", "-", "-", "-"})
				continue
			}
			total := float64(bd.TotalNS())
			pct := func(ns int64) string { return fmt.Sprintf("%.1f%%", 100*float64(ns)/total) }
			t.Rows = append(t.Rows, []string{
				mb.Entry.Name, sys,
				pct(bd.ComputeNS), pct(bd.ExposedXferNS), pct(bd.RematNS), pct(bd.FaultNS), pct(bd.OverheadNS),
			})
		}
	}
	t.Notes = append(t.Notes,
		"overhead is simulated policy cost (DTR interception); dynn-offload models none, and its measured host share (pilot inference + mapping) is in §VI-C")
	return t
}
