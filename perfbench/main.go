// Command perfbench is the repository's benchmark. It drives the public
// dynnoffload facade through one workload as a closed loop of ops for a
// fixed time, checks every op's outputs, and prints the end-to-end metrics;
// with --trace 1 it instead times the ops with spans around each public
// call, replays the ops' inputs through the internal layers' entry points,
// and prints the per-layer metrics. The last line of standard output is a
// one-line JSON summary. See README.md for the metrics and workloads.
//
//	go build -o perfbench . && ./perfbench --workload serve-tenants --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run. Lower is better except items_per_s.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "items/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"alloc_kib_per_item", "KiB"},
	{"live_heap_mib", "MiB"},
	{"sim_ms_per_sample", "ms"},
	{"mispredict_rate", "ratio"},
	{"sim_p50_ms", "ms"},
	{"sim_p99_ms", "ms"},
	{"slo_miss_rate", "ratio"},
}

// perLayer are the per-layer metrics the traced run reports, named by
// module. A layer a workload does not exercise reports 0 for its counts and
// shares; every host time is a measured per-call cost on that workload's
// inputs.
var perLayer = []metricDef{
	{"dynn.resolve_us", "us"},
	{"pilot.examples_us", "us"},
	{"pilot.resolve_us", "us"},
	{"pilot.candidates", "count"},
	{"pilot.exact_share", "ratio"},
	{"pilot.train_ms", "ms"},
	{"pilot.refine_ms", "ms"},
	{"sentinel.context_ms", "ms"},
	{"sentinel.partition_us", "us"},
	{"core.run_sample_us", "us"},
	{"core.simulate_us", "us"},
	{"core.plan_compile_us", "us"},
	{"core.plan_hit_share", "ratio"},
	{"core.parallel_speedup", "ratio"},
	{"core.batch_us_per_request", "us"},
	{"core.mispredict_cache_hit_share", "ratio"},
	{"gpusim.compute_share", "ratio"},
	{"gpusim.exposed_share", "ratio"},
	{"gpusim.remat_share", "ratio"},
	{"gpusim.fault_share", "ratio"},
	{"gpusim.overlap_efficiency", "ratio"},
	{"gpusim.h2d_mib_per_sample", "MiB"},
	{"gpusim.d2h_mib_per_sample", "MiB"},
	{"gpusim.peak_mem_share", "ratio"},
	{"faults.injected_per_item", "count"},
	{"faults.retries_per_item", "count"},
	{"faults.ondemand_fallbacks_per_item", "count"},
	{"serve.host_share", "ratio"},
	{"serve.residual_share", "ratio"},
	{"serve.batches_per_op", "count"},
	{"serve.mean_batch", "count"},
	{"serve.shed_share", "ratio"},
	{"serve.quota_shed_share", "ratio"},
	{"serve.attr.queue_share", "ratio"},
	{"serve.attr.quota_share", "ratio"},
	{"serve.attr.compute_share", "ratio"},
	{"serve.attr.exposed_share", "ratio"},
	{"serve.attr.remat_share", "ratio"},
	{"serve.attr.fault_share", "ratio"},
	{"serve.attr.batch_share", "ratio"},
	{"serve.attr.pilot_retrain_share", "ratio"},
	{"serve.tail.queue_share", "ratio"},
	{"serve.tail.quota_share", "ratio"},
	{"serve.tail.compute_share", "ratio"},
	{"serve.tail.exposed_share", "ratio"},
	{"serve.tail.remat_share", "ratio"},
	{"serve.tail.fault_share", "ratio"},
	{"serve.tail.batch_share", "ratio"},
	{"serve.tail.pilot_retrain_share", "ratio"},
	{"serve.scale_events_per_op", "count"},
	{"serve.peak_active", "count"},
	{"serve.replica_util_min", "ratio"},
	{"serve.replica_util_max", "ratio"},
	{"online.observe_us", "us"},
	{"online.retrain_ms", "ms"},
	{"online.retrains_per_op", "count"},
	{"online.last_window_rate", "ratio"},
	{"online.op_share", "ratio"},
	{"distributed.host_share", "ratio"},
	{"distributed.allreduce_share", "ratio"},
	{"distributed.comm_mib_per_step", "MiB"},
	{"distributed.link_util_max", "ratio"},
	{"pilot.examples_op_share", "ratio"},
	{"pilot.resolve_op_share", "ratio"},
	{"core.simulate_op_share", "ratio"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_pause_ms_per_op", "ms"},
	{"bench.trace_overhead_share", "ratio"},
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64) workload{
	"train-epoch":    func(seed uint64) workload { return newTrainEpoch(seed) },
	"serve-tenants":  func(seed uint64) workload { return newServeTenants(seed) },
	"cluster-online": func(seed uint64) workload { return newClusterOnline(seed) },
}

// setups is how many times an end-to-end run sets its workload up;
// setup_s is the median.
const setups = 2

// minOps is the fewest timed ops a run makes, whatever --seconds says: two
// rounds of the serving streams, which also leaves the tail percentile ten
// ops beyond it.
const minOps = 2 * serveStreams

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "train-epoch, serve-tenants, or cluster-online")
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 10, "how long the timed ops run")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-results"), "directory for the result file and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (train-epoch, serve-tenants, cluster-online), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b := &bench{
		w: mk(*seed), traced: *trace == 1,
		dur: time.Duration(*seconds) * time.Second,
		res: result{Provenance: stamp(*name, *seed, *trace == 1, *seconds)},
	}
	err := b.measure(stdout)
	if err != nil {
		b.res.Errors = append(b.res.Errors, err.Error())
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	if werr := b.write(*out); werr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", werr)
	}
	line, jerr := json.Marshal(b.res.Summary)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil || !b.res.Summary.Correct {
		return 1
	}
	return 0
}

// stamp records what produced a result.
func stamp(name string, seed uint64, traced bool, seconds int) provenance {
	p := provenance{
		Workload: name, Seed: seed, Trace: traced, Seconds: seconds,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// bench is one run of one workload.
type bench struct {
	w      workload
	traced bool
	dur    time.Duration
	sp     *spans
	res    result
}

// measure sets up, runs the timed ops, verifies, and fills b.res.
func (b *bench) measure(stdout io.Writer) error {
	p := b.res.Provenance
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d trace=%t seconds=%d go=%s %s/%s gomaxprocs=%d nproc=%d rev=%s modified=%t\n",
		p.Workload, p.Seed, p.Trace, p.Seconds, p.GoVersion, p.GOOS, p.GOARCH, p.GOMAXPROCS, p.NumCPU, p.Revision, p.Modified)
	b.res.Summary = summary{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}

	n := setups
	if b.traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := b.w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.res.SetupS = append(b.res.SetupS, time.Since(t0).Seconds())
	}

	// The timed phase. In the traced run, ops alternate between untraced and
	// traced in rounds of serveStreams, so both halves see every stream.
	if b.traced {
		b.sp = newSpans()
	}
	var untraced, traced opLog
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < b.dur; i++ {
		var sp *spans
		log := &untraced
		if b.traced && (i/serveStreams)%2 == 1 {
			sp, log = b.sp, &traced
		}
		t0 := time.Now()
		id := sp.start(opSpanName, i, 0)
		items, err := b.w.op(i, sp, id)
		sp.end(id)
		log.add(time.Since(t0), items, err)
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)

	all := append(append([]string(nil), untraced.errs...), traced.errs...)
	attempted := untraced.attempted() + traced.attempted()
	failed := untraced.failed + traced.failed
	var verr error
	if failed == 0 {
		verr = b.w.verify()
	}
	if verr != nil {
		all = append(all, verr.Error())
	}
	b.res.Errors = append(b.res.Errors, all...)
	b.res.Summary = summary{
		Correct: failed == 0 && verr == nil, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{},
	}
	b.res.Extra = map[string]metric{
		"failed_op_share": {share(float64(failed), float64(attempted)), "ratio"},
		"ops":             {float64(attempted), "count"},
	}
	fmt.Fprintf(stdout, "ops=%d failed=%d failed_op_share=%g setup_s_runs=%v\n",
		attempted, failed, b.res.Extra["failed_op_share"].Value, b.res.SetupS)
	for _, e := range all {
		fmt.Fprintf(stdout, "FAIL %s\n", e)
	}
	if failed > 0 || verr != nil {
		return errors.New("output checks failed")
	}

	figures := map[string]float64{}
	defs := endToEnd
	if b.traced {
		defs = perLayer
		lm, err := b.w.layers(b.sp, b.sp.traced())
		if err != nil {
			return err
		}
		for k, v := range lm {
			figures[k] = v
		}
		ops := float64(attempted)
		figures["go.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / ops
		figures["go.gc_pause_ms_per_op"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ops
		figures["bench.trace_overhead_share"] = median(traced.ms)/median(untraced.ms) - 1
	} else {
		sim, err := b.w.simulated()
		if err != nil {
			return err
		}
		for k, v := range sim {
			figures[k] = v
		}
		b.res.Tail = tailPercentile(untraced.ms)
		figures["setup_s"] = median(b.res.SetupS)
		figures["items_per_s"] = untraced.itemsPerSec()
		figures["op_ms_p50"] = median(untraced.ms)
		figures["op_ms_tail"] = b.res.Tail.Value
		figures["alloc_kib_per_item"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(untraced.items)
		figures["live_heap_mib"] = float64(m2.HeapInuse) / (1 << 20)
	}
	for _, d := range defs {
		v := finite(figures[d.name])
		b.res.Summary.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		note := ""
		if d.name == "op_ms_tail" {
			t := b.res.Tail
			note = fmt.Sprintf("  (p%.1f of %d ops, %d beyond)", t.Percentile, t.N, t.Beyond)
		}
		fmt.Fprintf(stdout, "%-36s %14.6g %s%s\n", d.name, v, d.unit, note)
	}
	if b.traced {
		b.res.Ledger = ledgerOf(figures)
		printLedger(stdout, b.res.Ledger)
	}
	return nil
}

// ledgerOf picks the op-time shares out of the per-layer figures.
func ledgerOf(fig map[string]float64) map[string]float64 {
	l := map[string]float64{}
	for _, k := range []string{
		"pilot.examples_op_share", "pilot.resolve_op_share", "core.simulate_op_share",
		"online.op_share", "serve.residual_share", "distributed.host_share",
	} {
		l[k] = fig[k]
	}
	return l
}

// printLedger lists the layers' shares of op time, largest first.
func printLedger(w io.Writer, l map[string]float64) {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if l[keys[i]] != l[keys[j]] {
			return l[keys[i]] > l[keys[j]]
		}
		return keys[i] < keys[j]
	})
	fmt.Fprintln(w, "ledger: share of op wall time by layer, largest first")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-30s %8.4f\n", k, l[k])
	}
}

// write stores the result file and, for a traced run, the spans.
func (b *bench) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	p := b.res.Provenance
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", p.Workload, p.Seed, btoi(p.Trace)))
	f, err := os.Create(base + ".json")
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	defer f.Close()
	if err := writeResult(f, &b.res); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	if b.sp != nil {
		return b.sp.write(base + ".spans.jsonl")
	}
	return nil
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}
