package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dynnoffload"
	"dynnoffload/internal/core"
	"dynnoffload/internal/expt"
)

// workload is one of the benchmark's input sets. Every op is a closed-loop
// call: the benchmark issues it, waits for it, then issues the next.
type workload interface {
	// setup builds the systems from scratch, trains the pilot(s), and runs
	// one untimed warm-up op — what setup_s measures.
	setup() error
	// op runs timed op i and checks its outputs. sp records the public calls
	// it makes under parent (nil when untraced).
	op(i int, sp *spans, parent int) (items int, err error)
	// verify re-runs the first op under the other worker count and collects
	// what the simulated metrics need beyond the op reports.
	verify() error
	// simulated returns the workload's simulated-clock end-to-end metrics.
	simulated() (map[string]float64, error)
	// layers replays the ops' inputs through the internal layers (traced
	// run) and returns the per-layer metrics.
	layers(sp *spans, ops opSpans) (map[string]float64, error)
}

// defaults are the CI-scale sizes the repository's experiments use: pilot
// width and epochs, corpus sizes, DyNN batch, model seed, memory pressure.
var defaults = expt.DefaultOptions()

// pilotConfig is the pilot every workload trains.
func pilotConfig() dynnoffload.PilotConfig {
	return dynnoffload.PilotConfig{Neurons: defaults.Neurons, Epochs: defaults.Epochs, Seed: defaults.Seed}
}

// corpus is one model's generated inputs: the pilot's training samples and
// one or more held-out sets of the experiments' test size for the ops to
// run over.
type corpus struct {
	train []*dynnoffload.Sample
	test  [][]*dynnoffload.Sample
}

// newCorpus draws a model's samples from the workload seed. Stream numbers
// keep each model's corpus independent of the others'. Sample IDs run on
// across the held-out sets, so no two sets share a request.
func newCorpus(seed, stream uint64, sets int) corpus {
	n := defaults.TestSamples
	all := dynnoffload.GenerateSamples(splitmix(seed, stream), defaults.TrainSamples+sets*n, 8, 48)
	c := corpus{train: all[:defaults.TrainSamples]}
	for s := 0; s < sets; s++ {
		lo := defaults.TrainSamples + s*n
		c.test = append(c.test, all[lo:lo+n])
	}
	return c
}

// Input streams derived from the workload seed.
const (
	streamCorpusA = iota
	streamCorpusB
	streamTenants
	streamFaults
	streamOnline
)

// serveStreams is how many distinct serving inputs — a held-out pool and
// the tenants' arrival seeds — the serving workloads' ops cycle through. A
// serving run's tail latency and SLO misses hinge on a few load bursts, so
// one stream per seed would make those figures differ more between seeds
// than the bounds allow; the simulated metrics pool the first
// serveStreams ops instead.
const serveStreams = 16

// arrivalSeed is the seed of tenant t's arrivals in serving stream s.
func arrivalSeed(seed uint64, s, t int) uint64 {
	return splitmix(splitmix(seed, streamTenants), uint64(s*16+t))
}

// digest is a fingerprint of a report's simulated content, so later ops can
// be checked against the first one.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("perfbench: digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// simEpoch drops the fields of an epoch report that hold host wall time
// (pilot inference and mapping, folded into OverheadNS), leaving only
// simulated figures that must replay exactly.
func simEpoch(r dynnoffload.EpochReport) dynnoffload.EpochReport {
	r.PilotNS, r.MappingNS = 0, 0
	r.Breakdown.OverheadNS = 0
	return r
}

// simCluster is simEpoch for a cluster epoch report and its per-GPU parts.
func simCluster(r dynnoffload.ClusterEpochReport) dynnoffload.ClusterEpochReport {
	r.Report = simEpoch(r.Report)
	per := make([]core.EpochReport, len(r.PerGPU))
	for i, g := range r.PerGPU {
		per[i] = simEpoch(g)
	}
	r.PerGPU = per
	return r
}

// checkServe applies the serving output checks to one report's totals and
// tenants: conservation of requests, exact attribution, ordered quantiles.
func checkServe(total dynnoffload.ServeStats, tenants []dynnoffload.ServeTenantReport) error {
	var errs []error
	check := func(who string, s dynnoffload.ServeStats) {
		if s.Arrivals != s.Completed+s.Shed+s.QuotaShed {
			errs = append(errs, fmt.Errorf("%s: arrivals %d != completed %d + shed %d + quota-shed %d",
				who, s.Arrivals, s.Completed, s.Shed, s.QuotaShed))
		}
		if s.Attribution == nil {
			errs = append(errs, fmt.Errorf("%s: no latency attribution", who))
		} else {
			sum, want := s.Attribution.All.TotalNS(), s.MeanNS*s.Completed
			if d := sum - want; d > s.Completed || -d > s.Completed {
				errs = append(errs, fmt.Errorf("%s: attribution sums to %d ns, mean x completed is %d ns", who, sum, want))
			}
		}
		if s.P50NS > s.P99NS || s.P99NS > s.MaxNS {
			errs = append(errs, fmt.Errorf("%s: quantiles out of order: p50 %d, p99 %d, max %d", who, s.P50NS, s.P99NS, s.MaxNS))
		}
	}
	check("total", total)
	for _, t := range tenants {
		check("tenant "+t.Name, t.Stats)
	}
	return errors.Join(errs...)
}

// promCounters reads the global serving recorder's counters (label
// run="serve") from a registry's Prometheus exposition: samples,
// mispredictions, cache hits, and the fault counters. Absent rows are 0.
func promCounters(reg *dynnoffload.MetricsRegistry) (map[string]float64, error) {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, labels, ok := strings.Cut(key, "{")
		if !ok || !strings.HasPrefix(labels, `run="serve"`) {
			continue
		}
		rest := strings.TrimSuffix(strings.TrimPrefix(labels, `run="serve"`), "}")
		if rest != "" && rest != `,kind="ondemand"` {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("perfbench: metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}

// share is num/den, or 0 for an empty base.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// attrShares adds the serving attribution shares under prefix: each
// component over the decomposition's total.
func attrShares(m map[string]float64, prefix string, a dynnoffload.AttributionComponents) {
	tot := float64(a.TotalNS())
	m[prefix+".queue_share"] = share(float64(a.QueueNS), tot)
	m[prefix+".quota_share"] = share(float64(a.QuotaNS), tot)
	m[prefix+".compute_share"] = share(float64(a.ComputeNS), tot)
	m[prefix+".exposed_share"] = share(float64(a.ExposedNS), tot)
	m[prefix+".remat_share"] = share(float64(a.RematNS), tot)
	m[prefix+".fault_share"] = share(float64(a.FaultNS), tot)
	m[prefix+".batch_share"] = share(float64(a.BatchNS), tot)
	m[prefix+".pilot_retrain_share"] = share(float64(a.PilotRetrainNS), tot)
}

// breakdownShares adds the simulated-device figures of an aggregate
// breakdown over samples items on a GPU of memBytes.
func breakdownShares(m map[string]float64, b dynnoffload.Breakdown, samples int, memBytes int64) {
	dev := float64(b.DeviceNS())
	m["gpusim.compute_share"] = share(float64(b.ComputeNS), dev)
	m["gpusim.exposed_share"] = share(float64(b.ExposedXferNS), dev)
	m["gpusim.remat_share"] = share(float64(b.RematNS), dev)
	m["gpusim.fault_share"] = share(float64(b.FaultNS), dev)
	m["gpusim.overlap_efficiency"] = b.OverlapEfficiency()
	m["gpusim.h2d_mib_per_sample"] = share(float64(b.H2DBytes)/(1<<20), float64(samples))
	m["gpusim.d2h_mib_per_sample"] = share(float64(b.D2HBytes)/(1<<20), float64(samples))
	m["gpusim.peak_mem_share"] = share(float64(b.PeakGPUBytes), float64(memBytes))
}

// serveLayer adds the per-layer serving figures of one serving report.
func serveLayer(m map[string]float64, r *dynnoffload.ServeReport) {
	t := r.Total
	m["serve.batches_per_op"] = float64(t.Batches)
	m["serve.mean_batch"] = r.MeanBatchSize
	m["serve.shed_share"] = share(float64(t.Shed), float64(t.Arrivals))
	m["serve.quota_shed_share"] = share(float64(t.QuotaShed), float64(t.Arrivals))
	if t.Attribution != nil {
		attrShares(m, "serve.attr", t.Attribution.All)
		attrShares(m, "serve.tail", t.Attribution.Tail)
	}
}

// ledgerCounts are how many times one op calls each replayed layer.
type ledgerCounts struct {
	examples, resolves, simulates, observes, retrains float64
}

// opLedger adds each layer's share of the mean traced op time: its replayed
// per-call cost times its calls per op. Layers that run on the parallel
// runtime overlap each other, so the shares may sum past 1 by up to the
// worker count.
func opLedger(m map[string]float64, ops opSpans, f replayFigures, c ledgerCounts) {
	opUS := ops.opUS
	m["pilot.examples_op_share"] = share(f.examplesUS*c.examples, opUS)
	m["pilot.resolve_op_share"] = share(f.resolveUS*c.resolves, opUS)
	m["core.simulate_op_share"] = share(f.simulateUS*c.simulates, opUS)
	m["online.op_share"] = share(f.observeUS*c.observes+f.retrainMS*1e3*c.retrains, opUS)
}

// onlineConfig is the cluster-online learner: per-tenant adapters, seeded
// from the workload seed, retraining every 400 completions so retrain stalls
// stay a minority of an op's host time.
func onlineConfig(seed uint64) dynnoffload.OnlineConfig {
	return dynnoffload.OnlineConfig{
		Enabled: true, PerTenant: true, TrainingInterval: 400,
		Seed: splitmix(seed, streamOnline),
	}
}

// sloMissRate counts SLO violations and refused requests against arrivals.
func sloMissRate(t dynnoffload.ServeStats) float64 {
	return share(float64(t.SLOViolations+t.Shed+t.QuotaShed), float64(t.Arrivals))
}
