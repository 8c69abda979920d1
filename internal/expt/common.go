// Package expt contains one driver per table and figure of the paper's
// evaluation (§VI), plus the §II analyses. Each driver returns a printable
// Table so the cmd/dynnbench CLI and the bench harness share one
// implementation. DESIGN.md §4 maps every driver to its paper artifact;
// EXPERIMENTS.md records paper-reported vs measured values.
package expt

import (
	"fmt"
	"io"
	"strings"

	"dynnoffload/internal/baselines"
	"dynnoffload/internal/core"
	"dynnoffload/internal/dynn"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	// raw holds, per row and column, the unrounded value a cell was
	// formatted from. Drivers whose tables are goldened fill it through
	// addRow, so the golden tests can pin what display rounding hides.
	raw [][]any
}

// cell is one table cell: its display text and the unrounded value behind
// it.
type cell struct {
	text string
	raw  any
}

// val formats v for display and keeps v itself as the cell's raw value.
func val(format string, v any) cell { return cell{fmt.Sprintf(format, v), v} }

// txt is a cell that shows s as it is.
func txt(s string) cell { return cell{s, s} }

// addRow appends a row of cells: their texts to Rows, their raw values to
// raw.
func (t *Table) addRow(cells ...cell) {
	row := make([]string, len(cells))
	raw := make([]any, len(cells))
	for i, c := range cells {
		row[i], raw[i] = c.text, c.raw
	}
	t.Rows = append(t.Rows, row)
	t.raw = append(t.raw, raw)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Options size the experiments. Defaults are "CI scale": fast enough for the
// test suite; cmd/dynnbench raises them toward paper scale with flags.
type Options struct {
	TrainSamples int // pilot-training samples per model
	TestSamples  int // evaluation samples per model
	Neurons      int // pilot hidden width
	Epochs       int
	Batch        int // DyNN batch size for zoo models
	Seed         uint64
	// PressureFraction sets the simulated GPU memory as a fraction of the
	// model's footprint, putting bench-scale models in the same
	// memory-pressure regime the paper's full-scale models face on a real
	// GPU.
	PressureFraction float64
	// Workers sizes the worker pools of the workbench's epochs, serving and
	// cluster runs; <= 0 uses GOMAXPROCS. Results are identical at any
	// setting (the sample pipeline is deterministic); only wall clock
	// changes.
	Workers int
	// Faults configures deterministic fault injection for DyNN-Offload
	// engines built by the workbench (zero Rate disables it). FaultSweep
	// ignores this and sweeps its own rates.
	Faults faults.Config
	// Metrics, when non-nil, receives every Recorder the experiment drivers
	// create, for live Prometheus exposition (dynnbench -serve).
	Metrics *obsv.Registry
}

// DefaultOptions returns CI-scale options.
func DefaultOptions() Options {
	return Options{
		TrainSamples:     1500,
		TestSamples:      400,
		Neurons:          128,
		Epochs:           12,
		Batch:            48,
		Seed:             42,
		PressureFraction: 0.5,
	}
}

// ModelBench bundles everything needed to evaluate one zoo model: its
// pressure-scaled platform, model context (paths, labels), and the
// train/test example split.
type ModelBench struct {
	Entry    dynn.ZooEntry
	Model    dynn.Model
	Platform gpusim.Platform
	Ctx      *pilot.ModelContext
	Train    []*pilot.Example
	Test     []*pilot.Example
}

// Workbench holds shared state across experiment drivers so expensive setup
// (contexts, pilot training) happens once.
type Workbench struct {
	Opts   Options
	Models []*ModelBench
	Pilot  *pilot.Pilot
	// Plans is the shared resolved-plan cache every engine the workbench
	// builds attaches to, so ServeSweep/ClusterSweep grid cells (which get
	// fresh engines — the mis-prediction cache is stateful) still amortize
	// plan compilation across the whole sweep.
	Plans *core.PlanCache
}

// NewModelBench prepares one zoo entry under the given options.
func NewModelBench(entry dynn.ZooEntry, opts Options) (*ModelBench, error) {
	m := entry.New(opts.Batch, opts.Seed)
	base := gpusim.RTXPlatform()
	if entry.Name == "var-BERT" || entry.Name == "AlphaFold" || entry.Name == "fixed-BERT" {
		base = gpusim.A100Platform() // the paper deploys these on A100 (§VI-C)
	}
	plat, err := pilot.PressurePlatform(m, base, opts.PressureFraction)
	if err != nil {
		return nil, fmt.Errorf("expt: %s: %w", entry.Name, err)
	}
	ctx, err := pilot.NewModelContext(m, gpusim.NewCostModel(plat), plat.GPU.MemBytes/2, 0)
	if err != nil {
		return nil, fmt.Errorf("expt: %s: %w", entry.Name, err)
	}

	n := opts.TrainSamples + opts.TestSamples
	samples := dynn.GenerateSamples(opts.Seed^uint64(len(entry.Name))<<8, n, 8, 48)
	exs, err := pilot.BuildExamples(ctx, pilot.FeatureConfig{}, samples)
	if err != nil {
		return nil, fmt.Errorf("expt: %s: %w", entry.Name, err)
	}
	return &ModelBench{
		Entry:    entry,
		Model:    m,
		Platform: plat,
		Ctx:      ctx,
		Train:    exs[:opts.TrainSamples],
		Test:     exs[opts.TrainSamples:],
	}, nil
}

// NewWorkbench builds benches for all zoo models and trains one shared pilot
// on the training split of every dynamic model (§VI-A: over 24,000 samples
// from the models in Table II).
func NewWorkbench(opts Options) (*Workbench, error) {
	wb := &Workbench{Opts: opts, Plans: core.NewPlanCache()}
	for _, entry := range dynn.Zoo() {
		mb, err := NewModelBench(entry, opts)
		if err != nil {
			return nil, err
		}
		wb.Models = append(wb.Models, mb)
	}
	var train []*pilot.Example
	for _, mb := range wb.Models {
		if mb.Entry.Dynamic {
			train = append(train, mb.Train...)
		}
	}
	wb.Pilot = pilot.New(pilot.Config{Neurons: opts.Neurons, Epochs: opts.Epochs, Seed: opts.Seed})
	wb.Pilot.Train(train)
	return wb, nil
}

// Bench returns the bench for a model name.
func (wb *Workbench) Bench(name string) *ModelBench {
	for _, mb := range wb.Models {
		if mb.Entry.Name == name {
			return mb
		}
	}
	return nil
}

// Engine builds a DyNN-Offload runtime for a bench using the shared pilot,
// applying the workbench's fault-injection options when enabled.
func (wb *Workbench) Engine(mb *ModelBench) *core.Engine {
	cfg := core.DefaultConfig(mb.Platform)
	cfg.Plans = wb.Plans
	if wb.Opts.Faults.Rate > 0 {
		cfg.Faults = faults.New(wb.Opts.Faults)
	}
	return core.NewEngine(cfg, wb.Pilot)
}

// runEpoch runs an untraced epoch of mb.Test (see TracedEpoch).
func (wb *Workbench) runEpoch(eng *core.Engine, mb *ModelBench) (core.EpochReport, error) {
	return wb.TracedEpoch(eng, mb, nil)
}

// epochBaseline simulates an epoch under a per-path-cached baseline policy.
func epochBaseline(mb *ModelBench, run func(info *pilot.PathInfo) (gpusim.Breakdown, error)) (gpusim.Breakdown, error) {
	cache := map[string]gpusim.Breakdown{}
	var total gpusim.Breakdown
	for _, ex := range mb.Test {
		bd, ok := cache[ex.TruthKey]
		if !ok {
			info := mb.Ctx.PathByKey(ex.TruthKey)
			var err error
			bd, err = run(info)
			if err != nil {
				return total, err
			}
			cache[ex.TruthKey] = bd
		}
		total = total.Add(bd)
	}
	return total, nil
}

// systemEpoch runs one epoch of mb.Test under the named system. Returns the
// aggregate breakdown, or an error for infeasible configurations.
func (wb *Workbench) systemEpoch(mb *ModelBench, system string) (gpusim.Breakdown, error) {
	switch system {
	case "pytorch":
		return epochBaseline(mb, func(info *pilot.PathInfo) (gpusim.Breakdown, error) {
			return baselines.PyTorch(info.Analysis, mb.Platform)
		})
	case "uvm":
		return epochBaseline(mb, func(info *pilot.PathInfo) (gpusim.Breakdown, error) {
			return baselines.UVM(info.Analysis, mb.Platform, baselines.DefaultUVMConfig())
		})
	case "dtr":
		return epochBaseline(mb, func(info *pilot.PathInfo) (gpusim.Breakdown, error) {
			return baselines.DTR(info.Analysis, mb.Platform, baselines.DefaultDTRConfig())
		})
	case "zero":
		eng := wb.Engine(mb)
		return epochBaseline(mb, func(info *pilot.PathInfo) (gpusim.Breakdown, error) {
			return baselines.ZeRO(info.Analysis, mb.Platform, mb.Entry.Dynamic,
				baselines.DefaultZeROConfig(), eng.SimulatePartition)
		})
	case "dynn-offload":
		eng := wb.Engine(mb)
		rep, err := wb.runEpoch(eng, mb)
		return rep.Breakdown, err
	}
	return gpusim.Breakdown{}, fmt.Errorf("expt: unknown system %q", system)
}

// ms renders nanoseconds as milliseconds.
func ms(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e6) }

// msCell is an ms cell that keeps the nanoseconds as its raw value.
func msCell(ns int64) cell { return cell{ms(ns), ns} }

// ratio renders a/b.
func ratio(a, b int64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}
