package expt

import (
	"fmt"

	"dynnoffload/internal/core"
	"dynnoffload/internal/dynn"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// NewSingleModelWorkbench builds a workbench holding only the named zoo
// entry, training the pilot on that model's split alone — the cheap setup
// behind `dynnbench -trace` and the `make trace` smoke target.
func NewSingleModelWorkbench(name string, opts Options) (*Workbench, error) {
	for _, entry := range dynn.Zoo() {
		if entry.Name != name {
			continue
		}
		mb, err := NewModelBench(entry, opts)
		if err != nil {
			return nil, err
		}
		wb := &Workbench{Opts: opts, Models: []*ModelBench{mb}, Plans: core.NewPlanCache()}
		wb.Pilot = pilot.New(pilot.Config{Neurons: opts.Neurons, Epochs: opts.Epochs, Seed: opts.Seed})
		wb.Pilot.Train(mb.Train)
		return wb, nil
	}
	return nil, fmt.Errorf("expt: unknown zoo model %q", name)
}

// TracedEpoch runs one epoch of mb.Test on the engine's sample pipeline
// with span tracing attached (a nil tracer traces nothing).
// Options.Workers sizes the pool (<= 0 uses GOMAXPROCS); the report and
// the span set are identical at any setting.
func (wb *Workbench) TracedEpoch(eng *core.Engine, mb *ModelBench, tracer *obsv.Tracer) (core.EpochReport, error) {
	return eng.ParallelRunEpoch(mb.Test, core.EpochOptions{Workers: wb.Opts.Workers, Tracer: tracer})
}

// traceEpochOverlap runs a traced epoch and reduces the span set to its
// overlap summary.
func (wb *Workbench) traceEpochOverlap(eng *core.Engine, mb *ModelBench) (obsv.OverlapStats, error) {
	tracer := obsv.NewTracer()
	if _, err := wb.TracedEpoch(eng, mb, tracer); err != nil {
		return obsv.OverlapStats{}, err
	}
	return obsv.NewTimeline(tracer.Spans(), mb.Platform.Link.BW).Overlap(), nil
}

// Overlap tabulates span-measured overlap efficiency — the fraction of
// transfer time that ran concurrently with compute — for the DyNN-Offload
// engine against the on-demand fallback executed unconditionally (the
// "every sample mis-predicted" regime), across the model zoo. The paper's
// bandwidth-overlap claim, made directly visible: the engine hides most
// migration behind compute, the on-demand path exposes all of it.
func Overlap(wb *Workbench) (*Table, error) {
	tab := &Table{
		Title: "Overlap efficiency: engine vs on-demand (span-measured)",
		Header: []string{"model", "xfer-MB", "hidden-ms", "exposed-ms",
			"eff-engine", "eff-ondemand", "h2d-util", "pcie-util"},
	}
	for _, mb := range wb.Models {
		eng, err := wb.traceEpochOverlap(wb.Engine(mb), mb)
		if err != nil {
			return nil, fmt.Errorf("expt: overlap: %s engine: %w", mb.Entry.Name, err)
		}
		cfg := core.DefaultConfig(mb.Platform)
		cfg.ForceOnDemand = true
		od, err := wb.traceEpochOverlap(core.NewEngine(cfg, wb.Pilot), mb)
		if err != nil {
			return nil, fmt.Errorf("expt: overlap: %s on-demand: %w", mb.Entry.Name, err)
		}
		if eng.TransferNS == 0 {
			// The model's peak fits on the bench-scale GPU (its footprint is
			// below the 9/4·maxOp double-buffer floor), so nothing migrates
			// and overlap is undefined for it.
			tab.Rows = append(tab.Rows, []string{
				mb.Entry.Name, "0.0", "-", "-", "fits-GPU", "fits-GPU", "-", "-",
			})
			continue
		}
		tab.Rows = append(tab.Rows, []string{
			mb.Entry.Name,
			fmt.Sprintf("%.1f", float64(eng.TransferBytes)/(1<<20)),
			ms(eng.HiddenNS),
			ms(eng.ExposedNS),
			fmt.Sprintf("%.1f%%", eng.Efficiency*100),
			fmt.Sprintf("%.1f%%", od.Efficiency*100),
			fmt.Sprintf("%.1f%%", eng.LaneUtil[obsv.LaneH2D]*100),
			fmt.Sprintf("%.1f%%", eng.PCIeUtil*100),
		})
	}
	tab.Notes = append(tab.Notes,
		"efficiency = hidden transfer time / total transfer time, from span interval intersection",
		"on-demand serializes every migration on the critical path, so nothing hides (0%)",
		"fits-GPU: the model's peak is under the double-buffer floor at bench scale — no migration to overlap",
	)
	return tab, nil
}
