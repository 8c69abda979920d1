// Command dynnserve plays a multi-tenant serving workload against a cluster
// of simulated GPU replicas on one virtual clock: seeded arrival streams,
// per-tenant GPU-memory quotas with load shedding, SLO-aware continuous
// batching, home-affinity placement with least-loaded spill, and optional
// elastic replica scaling. Identical flags replay bit-identical results at
// any -workers value.
//
// Usage:
//
//	dynnserve -model Tree-LSTM
//	dynnserve -model Tree-LSTM -gpus 4
//	dynnserve -model Tree-LSTM -gpus 4 -minreplicas 1 -scaleup 100us -scaledown 5ms
//	dynnserve -model MoE -tenants "prio:rate=40,requests=200,slo=2s,quota=0.5;batch:rate=10,requests=50"
//	dynnserve -model Tree-LSTM -trace serve.json -serve :8080
//
// The binary goes through the public dynnoffload facade only — it is the
// reference for driving the cluster API from downstream code.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"dynnoffload"
)

func main() {
	var (
		model   = flag.String("model", "Tree-LSTM", "zoo model to serve")
		tenants = flag.String("tenants",
			"alpha:rate=2000,requests=120,slo=50ms,quota=0.5;beta:rate=2000,requests=120,slo=50ms,quota=0.5",
			"tenant specs, ';'-separated: name:rate=R[,requests=N][,slo=DUR][,quota=FRACTION][,maxqueue=Q][,seed=S]")
		gpus      = flag.Int("gpus", 1, "GPU replica count")
		minRep    = flag.Int("minreplicas", 0, "elastic floor (with -scaleup; 0 = 1)")
		scaleUp   = flag.Duration("scaleup", 0, "enable elastic scaling: windowed mean queue wait that activates one more replica")
		scaleDown = flag.Duration("scaledown", 0, "idle time after which an active replica beyond the floor retires")
		maxBatch  = flag.Int("maxbatch", 0, "continuous-batch size bound (0 = default)")
		starve    = flag.Duration("starve", 0, "starvation guard age (0 = derive from SLOs, negative = off)")
		onDemand  = flag.Bool("ondemand", false, "force the always-on-demand baseline engines")
		pressure  = flag.Float64("pressure", 0.5, "GPU memory as a fraction of the model's footprint")
		train     = flag.Int("train", 1500, "pilot-training samples")
		test      = flag.Int("test", 400, "request-pool samples")
		neurons   = flag.Int("neurons", 128, "pilot hidden width")
		epochs    = flag.Int("epochs", 12, "pilot training epochs")
		batch     = flag.Int("batch", 48, "DyNN batch size")
		seed      = flag.Uint64("seed", 42, "base seed (tenant seeds derive from it)")
		workers   = flag.Int("workers", 0, "engine fan-out per dispatched batch (0 = GOMAXPROCS)")
		faultSpec = flag.String("faults", "", "deterministic fault injection, e.g. seed=7,rate=0.05[,stall=4]")
		online    = flag.Bool("online", false, "enable online pilot learning from serving traffic (replay memory + in-loop retraining + per-tenant adapters)")
		interval  = flag.Int("interval", 0, "online retrain interval in completed requests (0 = default)")
		memSize   = flag.Int("memsize", 0, "online replay-memory capacity (0 = default)")
		trajFile  = flag.String("trajectory", "", "write the online mispredict-rate trajectory as JSONL (requires -online)")
		traceFile = flag.String("trace", "", "write the serving trace (queue + device spans) as Chrome Trace Event JSON")
		flight    = flag.String("flight", "", "enable the flight recorder and write each snapshot to PREFIX-r<replica>-<reason>.jsonl")
		addr      = flag.String("serve", "", "serve live Prometheus metrics and pprof on this address, then block")
	)
	flag.Parse()
	if err := run(*model, *tenants, settings{
		gpus: *gpus, minReplicas: *minRep, scaleUpNS: int64(*scaleUp), scaleDownNS: int64(*scaleDown),
		maxBatch: *maxBatch, starveNS: int64(*starve), onDemand: *onDemand, pressure: *pressure,
		train: *train, test: *test, neurons: *neurons, epochs: *epochs, batch: *batch,
		seed: *seed, workers: *workers, faultSpec: *faultSpec, traceFile: *traceFile,
		flightPrefix: *flight, addr: *addr,
		online: *online, interval: *interval, memSize: *memSize, trajFile: *trajFile,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "dynnserve:", err)
		os.Exit(1)
	}
}

type settings struct {
	gpus, minReplicas      int
	scaleUpNS, scaleDownNS int64
	maxBatch               int
	starveNS               int64
	onDemand               bool
	pressure               float64
	train, test            int
	neurons, epochs, batch int
	seed                   uint64
	workers                int
	faultSpec              string
	traceFile              string
	flightPrefix           string
	addr                   string
	online                 bool
	interval, memSize      int
	trajFile               string
}

func run(model, tenantSpec string, st settings) error {
	m, err := dynnoffload.ZooModel(model, st.batch, st.seed)
	if err != nil {
		return err
	}
	plat := dynnoffload.RTXPlatform()
	switch model {
	case "var-BERT", "fixed-BERT", "AlphaFold":
		plat = dynnoffload.A100Platform() // the paper deploys these on A100
	}
	sysOpts := []dynnoffload.Option{
		dynnoffload.WithPlatform(plat),
		dynnoffload.WithMemoryPressure(st.pressure),
		dynnoffload.WithPilotConfig(dynnoffload.PilotConfig{
			Neurons: st.neurons, Epochs: st.epochs, Seed: st.seed,
		}),
		dynnoffload.WithWorkers(st.workers),
	}
	if st.faultSpec != "" {
		fc, err := dynnoffload.ParseFaultSpec(st.faultSpec)
		if err != nil {
			return err
		}
		sysOpts = append(sysOpts, dynnoffload.WithFaultInjection(fc))
	}
	copts := []dynnoffload.ClusterOption{
		dynnoffload.WithGPUs(st.gpus),
		dynnoffload.WithSystemOptions(sysOpts...),
	}
	if st.onDemand {
		copts = append(copts, dynnoffload.WithOnDemandServing())
	}
	if st.online {
		copts = append(copts, dynnoffload.WithOnlineLearning(dynnoffload.OnlineConfig{
			TrainingInterval: st.interval,
			MemorySize:       st.memSize,
			PerTenant:        true,
			Seed:             st.seed,
		}))
	} else if st.trajFile != "" {
		return errors.New("-trajectory requires -online")
	}
	var tracer *dynnoffload.Tracer
	if st.traceFile != "" {
		tracer = dynnoffload.NewTracer(dynnoffload.WithAbsoluteTime())
		copts = append(copts, dynnoffload.WithClusterTracer(tracer))
	}

	fmt.Printf("building %s cluster (%d GPUs) + pilot...\n", model, st.gpus)
	c, err := dynnoffload.NewCluster(m, copts...)
	if err != nil {
		return err
	}
	corpus := dynnoffload.GenerateSamples(st.seed, st.train+st.test, 8, 48)
	if _, err := c.TrainPilot(corpus[:st.train]); err != nil {
		return err
	}

	gpuMem := c.System().Platform().GPU.MemBytes
	tcs, err := parseTenants(tenantSpec, gpuMem, st.seed)
	if err != nil {
		return err
	}
	cfg := dynnoffload.ClusterConfig{
		Config: dynnoffload.ServeConfig{
			Tenants:         tcs,
			MaxBatch:        st.maxBatch,
			StarvationAgeNS: st.starveNS,
			Workers:         st.workers,
		},
		MinReplicas:     st.minReplicas,
		ScaleUpQueueNS:  st.scaleUpNS,
		ScaleDownIdleNS: st.scaleDownNS,
	}
	if st.flightPrefix != "" {
		cfg.Flight = dynnoffload.FlightConfig{Events: dynnoffload.DefaultFlightEvents}
	}
	var reg *dynnoffload.MetricsRegistry
	if st.addr != "" {
		reg = dynnoffload.NewMetricsRegistry()
		cfg.Registry = reg
		go func() {
			if err := http.ListenAndServe(st.addr, dynnoffload.NewMetricsMux(reg)); err != nil {
				fmt.Fprintln(os.Stderr, "dynnserve: serve:", err)
				os.Exit(1)
			}
		}()
		fmt.Printf("serving /metrics and /debug/pprof on %s\n", st.addr)
	}

	rep, err := c.Serve(corpus[st.train:], cfg)
	if err != nil {
		// A run that aborted on engine capacity still leaves its flight
		// recordings — dump them so the post-mortem has something to read.
		var fe *dynnoffload.ServeFlightError
		if errors.As(err, &fe) && st.flightPrefix != "" {
			if werr := writeFlights(st.flightPrefix, fe.Flights); werr != nil {
				fmt.Fprintln(os.Stderr, "dynnserve: flight dump:", werr)
			}
		}
		return err
	}
	report(os.Stdout, model, rep)
	if st.online {
		onlineReport(os.Stdout, rep)
		ev, err := c.System().PilotEval(corpus[st.train:])
		if err != nil {
			return err
		}
		confusionReport(os.Stdout, ev)
		if st.trajFile != "" {
			if err := writeTrajectory(st.trajFile, rep.Total.Online); err != nil {
				return err
			}
		}
	}

	if st.flightPrefix != "" {
		if err := writeFlights(st.flightPrefix, rep.Flights); err != nil {
			return err
		}
	}
	if st.traceFile != "" {
		if err := writeTrace(st.traceFile, model, plat.Link.BW, tracer); err != nil {
			return err
		}
	}
	if st.addr != "" {
		fmt.Printf("done; still serving on %s (interrupt to exit)\n", st.addr)
		select {}
	}
	return nil
}

// parseTenants parses the ';'-separated tenant spec list. Quotas are device
// fractions; unset seeds derive from the base seed and the tenant's position.
// Every tenant needs a positive finite rate; quotas lie in [0, 1], and
// requests, slo and maxqueue are never negative, so no value can silently
// mean "unbounded" (a NaN quota would convert to a negative byte count).
func parseTenants(spec string, gpuMem int64, baseSeed uint64) ([]dynnoffload.ServeTenant, error) {
	var tcs []dynnoffload.ServeTenant
	for i, one := range strings.Split(spec, ";") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		name, kvs, ok := strings.Cut(one, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant spec %q: want name:key=value,...", one)
		}
		tc := dynnoffload.ServeTenant{Name: name, Requests: 100, Seed: baseSeed + uint64(i+1)*7919}
		var quota float64
		for _, kv := range strings.Split(kvs, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("tenant %q: bad pair %q", name, kv)
			}
			var err error
			switch k {
			case "rate":
				tc.RatePerSec, err = strconv.ParseFloat(v, 64)
			case "requests":
				tc.Requests, err = strconv.Atoi(v)
			case "slo":
				var d time.Duration
				d, err = time.ParseDuration(v)
				tc.SLONS = int64(d)
			case "quota":
				quota, err = strconv.ParseFloat(v, 64)
			case "maxqueue":
				tc.MaxQueue, err = strconv.Atoi(v)
			case "seed":
				tc.Seed, err = strconv.ParseUint(v, 10, 64)
			default:
				err = fmt.Errorf("unknown key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("tenant %q: %s: %v", name, kv, err)
			}
		}
		switch {
		case !(tc.RatePerSec > 0) || math.IsInf(tc.RatePerSec, 1):
			return nil, fmt.Errorf("tenant %q: rate must be positive and finite", name)
		case !(quota >= 0 && quota <= 1):
			return nil, fmt.Errorf("tenant %q: quota must be a device fraction in [0, 1]", name)
		case tc.Requests < 0 || tc.SLONS < 0 || tc.MaxQueue < 0:
			return nil, fmt.Errorf("tenant %q: requests, slo and maxqueue must not be negative", name)
		}
		tc.QuotaBytes = int64(quota * float64(gpuMem))
		tcs = append(tcs, tc)
	}
	return tcs, nil
}

// table is a minimal aligned-column printer (the bench harness has a richer
// one; this binary stays facade-only).
type table struct {
	title  string
	header []string
	rows   [][]string
	notes  []string
}

func (t *table) print(out *os.File) {
	fmt.Fprintf(out, "== %s ==\n", t.title)
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c + strings.Repeat(" ", widths[i]-len(c))
		}
		fmt.Fprintln(out, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(out, "note: %s\n", n)
	}
	fmt.Fprintln(out)
}

// report prints the per-tenant, total, and per-replica serving summaries.
func report(out *os.File, model string, rep *dynnoffload.ClusterReport) {
	tab := &table{
		title:  fmt.Sprintf("Serving %s (simulated time)", model),
		header: []string{"tenant", "arrivals", "done", "shed", "quota-shed", "p50-ms", "p99-ms", "p999-ms", "viol", "queue-ms", "peak-MiB"},
	}
	row := func(name string, s dynnoffload.ServeStats) []string {
		return []string{
			name,
			strconv.FormatInt(s.Arrivals, 10),
			strconv.FormatInt(s.Completed, 10),
			strconv.FormatInt(s.Shed, 10),
			strconv.FormatInt(s.QuotaShed, 10),
			msf(s.P50NS), msf(s.P99NS), msf(s.P999NS),
			strconv.FormatInt(s.SLOViolations, 10),
			msf(s.QueueMeanNS),
			fmt.Sprintf("%.1f", float64(s.QuotaPeakBytes)/(1<<20)),
		}
	}
	for _, tr := range rep.Tenants {
		tab.rows = append(tab.rows, row(tr.Name, tr.Stats))
	}
	tab.rows = append(tab.rows, row("TOTAL", rep.Total))
	tab.notes = append(tab.notes,
		fmt.Sprintf("makespan %.3f ms simulated; %d batches, mean size %.2f; device high-water %.1f MiB",
			float64(rep.MakespanNS)/1e6, rep.Total.Batches, rep.MeanBatchSize,
			float64(rep.DeviceHighWater)/(1<<20)))
	tab.print(out)

	attributionReport(out, rep)

	rt := &table{
		title:  "Replicas",
		header: []string{"replica", "dispatches", "done", "busy-ms", "util", "home-tenants"},
	}
	for _, rs := range rep.Replicas {
		var homed []string
		for _, p := range rep.Placements {
			if p.Home == rs.Replica {
				homed = append(homed, fmt.Sprintf("%s (%d/%d home)", p.Tenant, p.HomeServed, p.Requests))
			}
		}
		rt.rows = append(rt.rows, []string{
			strconv.Itoa(rs.Replica),
			strconv.FormatInt(rs.Dispatches, 10),
			strconv.FormatInt(rs.Completed, 10),
			msf(rs.BusyNS),
			fmt.Sprintf("%.2f", rs.Util),
			strings.Join(homed, ", "),
		})
	}
	for _, ev := range rep.ScaleEvents {
		rt.notes = append(rt.notes, fmt.Sprintf("%s to %d replicas at %.3f ms", ev.Reason, ev.Active, float64(ev.AtNS)/1e6))
	}
	rt.notes = append(rt.notes, fmt.Sprintf("peak active replicas: %d", rep.PeakActive))
	rt.print(out)
}

func msf(ns int64) string { return fmt.Sprintf("%.2f", float64(ns)/1e6) }

// attributionReport prints the SLO attribution table: each tenant's (and the
// total's) end-to-end latency decomposed by cause, as percentage shares, with
// the p99 tail's dominant cause as the headline.
func attributionReport(out *os.File, rep *dynnoffload.ClusterReport) {
	if rep.Total.Attribution == nil {
		return
	}
	components := rep.Total.Attribution.All.Named()
	header := []string{"tenant"}
	for _, c := range components {
		header = append(header, c.Name+"-%")
	}
	header = append(header, "tail-dominant")
	at := &table{title: "Latency attribution (share of summed e2e latency; tail = p99 requests)", header: header}
	row := func(name string, a *dynnoffload.LatencyAttribution) {
		if a == nil {
			return
		}
		cells := []string{name}
		total := a.All.TotalNS()
		for _, c := range a.All.Named() {
			cells = append(cells, pct(c.NS, total))
		}
		dom := a.Tail.Dominant()
		cells = append(cells, fmt.Sprintf("%s %s%%", dom.Name, pct(dom.NS, a.Tail.TotalNS())))
		at.rows = append(at.rows, cells)
	}
	for _, tr := range rep.Tenants {
		row(tr.Name, tr.Stats.Attribution)
	}
	row("TOTAL", rep.Total.Attribution)
	tail := rep.Total.Attribution
	dom := tail.Tail.Dominant()
	at.notes = append(at.notes, fmt.Sprintf("p99 tail (%d requests) is %s%% %s",
		tail.TailCount, pct(dom.NS, tail.Tail.TotalNS()), dom.Name))
	at.print(out)
}

// onlineReport prints the online-learning summary: replay-memory fill,
// retrain count and cost, and the windowed mispredict-rate trajectory
// endpoints.
func onlineReport(out *os.File, rep *dynnoffload.ClusterReport) {
	on := rep.Total.Online
	if on == nil {
		return
	}
	ot := &table{
		title:  "Online pilot learning",
		header: []string{"observed", "mispredicts", "retrains", "retrain-ms", "memory", "adapters", "first-window", "last-window"},
	}
	wr := func(r float64) string {
		if r < 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", r)
	}
	ot.rows = append(ot.rows, []string{
		strconv.FormatInt(on.Observed, 10),
		strconv.FormatInt(on.Mispredicts, 10),
		strconv.FormatInt(on.Retrains, 10),
		msf(on.RetrainNS),
		fmt.Sprintf("%d/%d", on.MemorySize, on.MemoryCap),
		strconv.Itoa(on.AdapterTenants),
		wr(on.FirstWindowRate()),
		wr(on.LastWindowRate()),
	})
	ot.notes = append(ot.notes, "window rates are mispredicts per observation window; see -trajectory for the full curve")
	ot.print(out)
}

// confusionReport prints the pilot's top confused path pairs over the request
// pool — the shape behind the mispredict rate.
func confusionReport(out *os.File, ev dynnoffload.PilotEvalReport) {
	top := ev.TopConfusions(8)
	if len(top) == 0 {
		return
	}
	ct := &table{
		title:  fmt.Sprintf("Pilot confusion on the request pool (accuracy %.3f, %d/%d mispredicted)", ev.Accuracy, ev.Mispredictions, ev.Samples),
		header: []string{"truth path", "predicted", "count"},
	}
	for _, c := range top {
		pred := c.PredictedKey
		if pred == "" {
			pred = "(no path)"
		}
		ct.rows = append(ct.rows, []string{c.TruthKey, pred, strconv.Itoa(c.Count)})
	}
	ct.print(out)
}

// writeTrajectory writes the windowed mispredict-rate curve as JSONL, one
// window per line.
func writeTrajectory(path string, on *dynnoffload.OnlineStats) error {
	if on == nil {
		return errors.New("no online stats in report")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, w := range on.WindowRates {
		if _, err := fmt.Fprintf(f, `{"end_seq":%d,"mispredicts":%d,"window":%d,"rate":%.6f}`+"\n",
			w.EndSeq, w.Mispredicts, w.Window, w.Rate); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d trajectory windows to %s\n", len(on.WindowRates), path)
	return nil
}

// pct renders part/total as a percentage with one decimal ("-" when empty).
func pct(part, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(part)/float64(total))
}

// writeFlights writes each flight-recorder snapshot to its own JSONL file,
// PREFIX-r<replica>-<reason>.jsonl.
func writeFlights(prefix string, snaps []dynnoffload.FlightSnapshot) error {
	for _, s := range snaps {
		path := fmt.Sprintf("%s-r%d-%s.jsonl", prefix, s.Replica, s.Reason)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := s.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote flight recording (%d events, reason %s) to %s\n", len(s.Events), s.Reason, path)
	}
	return nil
}

// writeTrace dumps the serving span set (queue waits plus every replica's
// device spans on the shared cluster clock) as a Chrome Trace Event file.
func writeTrace(path, model string, linkBW float64, tracer *dynnoffload.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans := tracer.Spans()
	meta := dynnoffload.ChromeMeta{Label: model + " (serving)", LinkBWBytesPerSec: linkBW, Samples: tracer.SampleCount()}
	if err := dynnoffload.WriteChromeTrace(f, spans, meta); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans (%d requests) to %s\n", len(spans), tracer.SampleCount(), path)
	fmt.Println("inspect: dynntrace", path, " — or load into https://ui.perfetto.dev")
	return nil
}
