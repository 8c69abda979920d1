// Command dynnbench regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports; EXPERIMENTS.md
// records paper-vs-measured values.
//
// Usage:
//
//	dynnbench -list                  # registered experiments and runners
//	dynnbench -exp table1            # one experiment
//	dynnbench -exp all               # everything (slow)
//	dynnbench -exp fig7 -train 6000  # paper-scale pilot training
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"

	"dynnoffload"
	"dynnoffload/internal/core"
	"dynnoffload/internal/expt"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/obsv"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment (comma-separated): "+strings.Join(expt.ExperimentNames(), ",")+",all")
		list        = flag.Bool("list", false, "list registered experiments and runners, then exit")
		train       = flag.Int("train", 0, "pilot-training samples per model (default CI scale)")
		test        = flag.Int("test", 0, "evaluation samples per model")
		neurons     = flag.Int("neurons", 0, "pilot hidden width")
		epochs      = flag.Int("epochs", 0, "pilot training epochs")
		batch       = flag.Int("batch", 0, "DyNN batch size")
		seed        = flag.Uint64("seed", 42, "experiment seed")
		workers     = flag.Int("workers", 0, "epoch worker pool size for DyNN-Offload epochs (<= 0 = GOMAXPROCS)")
		stats       = flag.String("stats", "", "write per-sample JSONL observability events to this file")
		statsJSON   = flag.String("statsjson", "", "write aggregate per-model RunStats JSON for the parallel experiment to this file")
		faultSpec   = flag.String("faults", "", "deterministic fault injection, e.g. seed=7,rate=0.05[,stall=4]")
		clusterJSON = flag.String("clusterjson", "", "write the clustersweep capacity curves (QPS vs GPU count per model) as JSON to this file")
		traceFile   = flag.String("trace", "", "run one traced epoch of -model and write a Chrome Trace Event Format JSON file (Perfetto-loadable); skips -exp")
		model       = flag.String("model", "Tree-LSTM", "zoo model for -trace")
		serve       = flag.String("serve", "", "serve live Prometheus metrics and net/http/pprof on this address (e.g. :8080) while experiments run, then block")
	)
	flag.Parse()

	if *list {
		printList(os.Stdout)
		return
	}

	opts := expt.DefaultOptions()
	if *train > 0 {
		opts.TrainSamples = *train
	}
	if *test > 0 {
		opts.TestSamples = *test
	}
	if *neurons > 0 {
		opts.Neurons = *neurons
	}
	if *epochs > 0 {
		opts.Epochs = *epochs
	}
	if *batch > 0 {
		opts.Batch = *batch
	}
	opts.Seed = *seed
	opts.Workers = *workers
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if *faultSpec != "" {
		fc, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynnbench:", err)
			os.Exit(1)
		}
		opts.Faults = fc
	}

	var sink obsv.Sink
	if *stats != "" {
		f, err := os.Create(*stats)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynnbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		sink = obsv.NewJSONLSink(f)
	}

	var reg *obsv.Registry
	if *serve != "" {
		reg = obsv.NewRegistry()
		opts.Metrics = reg
		go func() {
			if err := http.ListenAndServe(*serve, obsv.NewServeMux(reg)); err != nil {
				fmt.Fprintln(os.Stderr, "dynnbench: serve:", err)
				os.Exit(1)
			}
		}()
		fmt.Printf("serving /metrics and /debug/pprof on %s\n", *serve)
	}

	var err error
	if *traceFile != "" {
		err = runTrace(*traceFile, *model, opts, reg)
	} else {
		err = run(*exp, opts, sink, *statsJSON, *clusterJSON)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynnbench:", err)
		os.Exit(1)
	}
	if *serve != "" {
		fmt.Printf("done; still serving on %s (interrupt to exit)\n", *serve)
		select {}
	}
}

// runTrace runs one traced epoch of the named zoo model and writes the span
// set as a Chrome Trace Event Format file, printing the overlap summary.
func runTrace(path, model string, opts expt.Options, reg *obsv.Registry) error {
	fmt.Printf("building %s bench + pilot...\n", model)
	wb, err := expt.NewSingleModelWorkbench(model, opts)
	if err != nil {
		return err
	}
	mb := wb.Models[0]
	tracer := obsv.NewTracer()
	rec := obsv.NewRecorder(model, opts.Workers, nil)
	reg.Register(rec)
	eng := wb.Engine(mb)
	rep, err := eng.ParallelRunEpoch(mb.Test, core.EpochOptions{Workers: opts.Workers, Tracer: tracer, Recorder: rec})
	if err != nil {
		return err
	}
	spans := tracer.Spans()
	o := obsv.NewTimeline(spans, mb.Platform.Link.BW).Overlap()
	rec.SetOverlap(o)
	rec.Finish()

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	meta := obsv.ChromeMeta{Label: model, LinkBWBytesPerSec: mb.Platform.Link.BW, Samples: tracer.SampleCount()}
	if err := obsv.WriteChromeTrace(f, spans, meta); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans (%d samples) to %s\n", len(spans), tracer.SampleCount(), path)
	fmt.Printf("epoch: %d samples, %d mispredictions; makespan %.3f ms simulated\n",
		rep.Samples, rep.Mispredictions, float64(o.MakespanNS)/1e6)
	fmt.Printf("overlap efficiency %.1f%% (hidden %.3f ms / transfer %.3f ms), pcie util %.1f%%\n",
		o.Efficiency*100, float64(o.HiddenNS)/1e6, float64(o.TransferNS)/1e6, o.PCIeUtil*100)
	fmt.Println("inspect: dynntrace", path, " — or load into https://ui.perfetto.dev")
	return nil
}

// printList writes the experiment registry and the runner names — the same
// sources the -exp dispatch and usage string are built from.
func printList(out *os.File) {
	fmt.Fprintln(out, "experiments (-exp, * = in '-exp all'):")
	for _, e := range expt.Experiments() {
		marker := " "
		if e.InAll {
			marker = "*"
		}
		fmt.Fprintf(out, "  %-17s %s %s\n", e.Name, marker, e.Desc)
	}
	fmt.Fprintln(out, "runners (dynnoffload.RunnerNames):")
	for _, n := range dynnoffload.RunnerNames() {
		fmt.Fprintf(out, "  %s\n", n)
	}
}

func run(exp string, opts expt.Options, sink obsv.Sink, statsJSON, clusterJSON string) error {
	out := os.Stdout

	var wb *expt.Workbench
	getWB := func() (*expt.Workbench, error) {
		if wb != nil {
			return wb, nil
		}
		fmt.Fprintln(out, "building workbench (model contexts + pilot training)...")
		var err error
		wb, err = expt.NewWorkbench(opts)
		return wb, err
	}

	names := strings.Split(exp, ",")
	if exp == "all" {
		names = expt.AllExperimentNames()
	}
	for _, name := range names {
		e, ok := expt.LookupExperiment(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q (see dynnbench -list)", name)
		}
		var w *expt.Workbench
		var err error
		if e.NeedsWorkbench {
			if w, err = getWB(); err != nil {
				return err
			}
		}
		var tab *expt.Table
		if name == "parallel" {
			// Special case: parallel threads the CLI's JSONL sink and emits
			// the per-model RunStats JSON, which the registry's uniform
			// signature doesn't carry.
			n := opts.Workers
			if n <= 1 {
				n = runtime.GOMAXPROCS(0)
			}
			var stats []obsv.RunStats
			tab, stats = expt.ParallelSpeedup(w, n, sink)
			if statsJSON != "" {
				if werr := writeStatsJSON(statsJSON, stats); werr != nil {
					return werr
				}
				fmt.Fprintf(out, "wrote %d RunStats records to %s\n", len(stats), statsJSON)
			}
		} else if name == "clustersweep" && clusterJSON != "" {
			// Special case: -clusterjson persists the machine-readable
			// capacity curves alongside the printed table.
			var stats []expt.ClusterSweepStat
			stats, err = expt.ClusterSweepStats(w)
			if err == nil {
				if werr := writeClusterJSON(clusterJSON, stats); werr != nil {
					return werr
				}
				fmt.Fprintf(out, "wrote %d capacity curves to %s\n", len(stats), clusterJSON)
				tab = expt.ClusterSweepTable(stats)
			}
		} else {
			tab, err = e.Run(w, opts)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		tab.Fprint(out)
	}
	return nil
}

// writeStatsJSON persists the aggregate per-model RunStats of a benchmark run
// as indented JSON (e.g. BENCH_PR2.json).
func writeStatsJSON(path string, stats []obsv.RunStats) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(stats)
}

// writeClusterJSON persists the cluster capacity curves as indented JSON
// (e.g. BENCH_PR6.json).
func writeClusterJSON(path string, stats []expt.ClusterSweepStat) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(stats)
}
