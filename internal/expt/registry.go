package expt

import "runtime"

// Experiment is one registered driver: the unit cmd/dynnbench dispatches on.
// The registry is the single source of truth for the CLI's -exp values, its
// usage string, and -list output, so adding a driver here is all it takes to
// surface it everywhere.
type Experiment struct {
	Name string
	// Desc is a one-line summary for -list.
	Desc string
	// NeedsWorkbench marks drivers that want the shared workbench (model
	// contexts plus the trained pilot); Run receives nil otherwise.
	NeedsWorkbench bool
	// InAll includes the driver in `-exp all`. Drivers kept out (parallel,
	// servesweep, clustersweep) are either wired specially by the CLI or
	// long-running sweeps meant to be invoked explicitly.
	InAll bool
	Run   func(wb *Workbench, opts Options) (*Table, error)
}

// experiments holds the registry in registration order (paper order).
var experiments = []Experiment{
	{Name: "table1", Desc: "§II-A path divergence across input samples", InAll: true,
		Run: func(_ *Workbench, o Options) (*Table, error) { return TableI(o.TrainSamples*4, o.Seed) }},
	{Name: "table2", Desc: "§VI-A model zoo inventory", InAll: true,
		Run: func(_ *Workbench, o Options) (*Table, error) { return TableII(), nil }},
	{Name: "heuristic", Desc: "§II-C weak correlation of static heuristics", InAll: true,
		Run: func(_ *Workbench, o Options) (*Table, error) { return HeuristicStudy(o.TrainSamples*2, o.Seed), nil }},
	{Name: "largest", Desc: "largest trainable model per system", InAll: true,
		Run: func(_ *Workbench, o Options) (*Table, error) { return LargestModel(0, 0) }},
	{Name: "table3", Desc: "§IV-C Sentinel partition quality", InAll: true,
		Run: func(_ *Workbench, o Options) (*Table, error) { return TableIII(0, 0, 0) }},
	{Name: "fig7", Desc: "§VI-C end-to-end speedup over baselines", NeedsWorkbench: true, InAll: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return Fig7(wb), nil }},
	{Name: "fig8", Desc: "§VI-D time breakdown per system", NeedsWorkbench: true, InAll: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return Fig8(wb), nil }},
	{Name: "fig9", Desc: "§VI-E migration traffic per system", NeedsWorkbench: true, InAll: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return Fig9(wb), nil }},
	{Name: "fig10", Desc: "§VI-F iteration latency and overhead", NeedsWorkbench: true, InAll: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return Fig10(wb) }},
	{Name: "table4", Desc: "§VI-G pilot architecture study", InAll: true,
		Run: func(_ *Workbench, o Options) (*Table, error) { return TableIV(o) }},
	{Name: "fig11", Desc: "§VI-G pilot training-set size study", InAll: true,
		Run: func(_ *Workbench, o Options) (*Table, error) { return Fig11(o) }},
	{Name: "fig12", Desc: "§VI-H prediction accuracy per model", NeedsWorkbench: true, InAll: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return Fig12(wb), nil }},
	{Name: "mispred", Desc: "§VI-H mis-prediction rates", NeedsWorkbench: true, InAll: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return Mispredictions(wb) }},
	{Name: "mispred-handling", Desc: "§IV-E mis-prediction cache effect", NeedsWorkbench: true, InAll: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return MispredHandling(wb) }},
	{Name: "overhead", Desc: "§VI-F pilot runtime overhead", NeedsWorkbench: true, InAll: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return Overhead(wb) }},
	{Name: "parallel", Desc: "parallel epoch determinism: N workers reproduce 1 (CLI wires -stats/-statsjson)", NeedsWorkbench: true,
		Run: func(wb *Workbench, o Options) (*Table, error) {
			n := o.Workers
			if n <= 1 {
				n = runtime.GOMAXPROCS(0)
			}
			tab, _ := ParallelEpoch(wb, n, nil)
			return tab, nil
		}},
	{Name: "faultsweep", Desc: "graceful degradation under fault injection", NeedsWorkbench: true, InAll: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return FaultSweep(wb) }},
	{Name: "overlap", Desc: "span-measured transfer/compute overlap", NeedsWorkbench: true, InAll: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return Overlap(wb) }},
	{Name: "servesweep", Desc: "serving: max sustainable load at fixed p99 SLO, engine vs on-demand", NeedsWorkbench: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return ServeSweep(wb) }},
	{Name: "clustersweep", Desc: "cluster serving: max sustainable QPS vs GPU count at fixed p99 SLO", NeedsWorkbench: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return ClusterSweep(wb) }},
	{Name: "onlinesweep", Desc: "serving: windowed mispredict-rate trajectory, frozen pilot vs online learning", NeedsWorkbench: true,
		Run: func(wb *Workbench, _ Options) (*Table, error) { return OnlineSweep(wb) }},
}

// Experiments returns the registry in registration order.
func Experiments() []Experiment {
	return append([]Experiment(nil), experiments...)
}

// LookupExperiment finds a driver by name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ExperimentNames lists every registered driver, in registration order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// AllExperimentNames lists the drivers `-exp all` runs.
func AllExperimentNames() []string {
	var names []string
	for _, e := range experiments {
		if e.InAll {
			names = append(names, e.Name)
		}
	}
	return names
}
