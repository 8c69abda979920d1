package main

import (
	"fmt"
	"math"

	"dynnoffload"
)

// Serving load of the serve-tenants workload. The knee — the served
// throughput once the offered rate far exceeds what the device sustains —
// measured 60.5 requests/s for this tenant mix on Tree-LSTM (see
// README.md), so the total offered rate is pinned at 80% of it.
const (
	serveRatePerSec = 48.0
	serveRequests   = 2000
)

// serveTenants is the serve-tenants workload: each op is System.Serve over
// one GPU with three tenants of distinct rate, SLO, and memory quota, with
// fault injection and the flight recorder on. Op i serves stream
// i mod serveStreams: that stream's held-out pool and arrival seeds.
type serveTenants struct {
	seed uint64
	data corpus
	sys  *dynnoffload.System
	cfgs []dynnoffload.ServeConfig

	// Per stream: the first op's report, its fingerprint, and its global
	// recorder counters.
	reports  []*dynnoffload.ServeReport
	digests  []string
	counters []map[string]float64
}

func newServeTenants(seed uint64) *serveTenants {
	return &serveTenants{seed: seed, data: newCorpus(seed, streamCorpusA, serveStreams)}
}

// tenantMix splits the pinned load of stream s: an interactive tenant with
// a tight SLO and the whole device as quota, a standard tenant with a
// looser SLO, and a batch tenant with no SLO whose half-device quota admits
// one of its requests at a time.
func tenantMix(seed uint64, s int, memBytes int64) []dynnoffload.ServeTenant {
	return []dynnoffload.ServeTenant{
		{Name: "interactive", Requests: serveRequests * 5 / 10, RatePerSec: serveRatePerSec * 0.5,
			Seed: arrivalSeed(seed, s, 0), SLONS: 50e6, QuotaBytes: memBytes},
		{Name: "standard", Requests: serveRequests * 3 / 10, RatePerSec: serveRatePerSec * 0.3,
			Seed: arrivalSeed(seed, s, 1), SLONS: 100e6, QuotaBytes: memBytes * 3 / 4},
		{Name: "batch", Requests: serveRequests * 2 / 10, RatePerSec: serveRatePerSec * 0.2,
			Seed: arrivalSeed(seed, s, 2), QuotaBytes: memBytes / 2},
	}
}

func (w *serveTenants) faults() dynnoffload.FaultConfig {
	return dynnoffload.FaultConfig{Seed: splitmix(w.seed, streamFaults), Rate: 0.05}
}

func (w *serveTenants) setup() error {
	w.reports = make([]*dynnoffload.ServeReport, serveStreams)
	w.digests = make([]string, serveStreams)
	w.counters = make([]map[string]float64, serveStreams)
	m, err := dynnoffload.ZooModel("Tree-LSTM", defaults.Batch, defaults.Seed)
	if err != nil {
		return err
	}
	sys, err := dynnoffload.NewSystem(m,
		dynnoffload.WithWorkers(1),
		dynnoffload.WithMemoryPressure(defaults.PressureFraction),
		dynnoffload.WithPilotConfig(pilotConfig()),
		dynnoffload.WithFaultInjection(w.faults()))
	if err != nil {
		return fmt.Errorf("serve-tenants: %w", err)
	}
	if _, err := sys.TrainPilot(w.data.train); err != nil {
		return fmt.Errorf("serve-tenants: %w", err)
	}
	w.sys = sys
	w.cfgs = w.cfgs[:0]
	for s := 0; s < serveStreams; s++ {
		w.cfgs = append(w.cfgs, dynnoffload.ServeConfig{
			Tenants: tenantMix(w.seed, s, sys.Platform().GPU.MemBytes),
			Workers: 1,
			Flight:  dynnoffload.FlightConfig{Events: dynnoffload.DefaultFlightEvents},
		})
	}
	if _, err := sys.Serve(w.data.test[0], w.cfgs[0]); err != nil {
		return fmt.Errorf("serve-tenants warm-up: %w", err)
	}
	return nil
}

// serve runs stream s under cfg and checks its report.
func (w *serveTenants) serve(s int, cfg dynnoffload.ServeConfig, sp *spans, op, parent int) (*dynnoffload.ServeReport, string, error) {
	id := sp.start("dynnoffload.System.Serve", op, parent)
	rep, err := w.sys.Serve(w.data.test[s], cfg)
	sp.end(id)
	if err != nil {
		return nil, "", fmt.Errorf("serve-tenants: %w", err)
	}
	if err := checkServe(rep.Total, rep.Tenants); err != nil {
		return nil, "", fmt.Errorf("serve-tenants: %w", err)
	}
	d, err := digest(rep)
	return rep, d, err
}

// op serves one stream. Every call builds a fresh engine, so an op must
// replay the first op of its stream exactly.
func (w *serveTenants) op(i int, sp *spans, parent int) (int, error) {
	s := i % serveStreams
	cfg := w.cfgs[s]
	cfg.Registry = dynnoffload.NewMetricsRegistry()
	rep, d, err := w.serve(s, cfg, sp, i, parent)
	if err != nil {
		return 0, err
	}
	switch {
	case w.digests[s] == "":
		if w.counters[s], err = promCounters(cfg.Registry); err != nil {
			return 0, err
		}
		w.reports[s], w.digests[s] = rep, d
	case d != w.digests[s]:
		return 0, fmt.Errorf("serve-tenants: op %d's simulated report differs from stream %d's first", i, s)
	}
	return int(rep.Total.Completed), nil
}

// verify replays the first op with two engine workers instead of one.
func (w *serveTenants) verify() error {
	cfg := w.cfgs[0]
	cfg.Workers = 2
	_, d, err := w.serve(0, cfg, nil, 0, 0)
	if err != nil {
		return err
	}
	if d != w.digests[0] {
		return fmt.Errorf("serve-tenants: the 2-worker report differs from the 1-worker op")
	}
	return nil
}

func (w *serveTenants) simulated() (map[string]float64, error) {
	var p serving
	for s, rep := range w.reports {
		c := w.counters[s]
		p.add(rep, c["dynn_mispredicts_total"], c["dynn_samples_total"])
	}
	return p.metrics(), nil
}

func (w *serveTenants) layers(sp *spans, ops opSpans) (map[string]float64, error) {
	first := w.reports[0]
	batch := max(1, int(math.Round(first.MeanBatchSize)))
	f, err := replayAll(sp, []replayInput{{
		model: w.sys.Context().Model, plat: w.sys.Platform(),
		train: w.data.train, test: w.data.test[0], faults: w.faults(),
		memo: true, fresh: true, batch: batch, workers: w.cfgs[0].Workers,
		online: onlineConfig(w.seed), tenants: len(w.cfgs[0].Tenants),
	}})
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	f.metrics(m)
	breakdownShares(m, f.batchBreakdown, f.batched, w.sys.Platform().GPU.MemBytes)
	serveLayer(m, first)
	done := float64(first.Total.Completed)
	c := w.counters[0]
	m["core.mispredict_cache_hit_share"] = share(c["dynn_cache_hits_total"], c["dynn_samples_total"])
	m["faults.injected_per_item"] = share(c["dynn_faults_injected_total"], done)
	m["faults.retries_per_item"] = share(c["dynn_fault_retries_total"], done)
	m["faults.ondemand_fallbacks_per_item"] = share(c["dynn_fault_fallbacks_total"], done)

	serveUS := ops.callUS["dynnoffload.System.Serve"]
	pool := float64(len(w.data.test[0]))
	m["serve.host_share"] = share(serveUS, ops.opUS)
	m["serve.residual_share"] = share(serveUS-f.examplesUS*pool-f.batchUS*done, ops.opUS)
	opLedger(m, ops, f, ledgerCounts{examples: pool, resolves: done, simulates: done})
	return m, nil
}

// serving pools the simulated serving figures of several streams' reports.
type serving struct {
	device, completed, arrivals, misses float64
	mispredicts, resolved               float64
	p50, p99                            []float64
}

// add folds one stream's report, with its mispredicted and resolved
// request counts.
func (p *serving) add(r *dynnoffload.ServeReport, mispredicts, resolved float64) {
	t := r.Total
	a := t.Attribution.All
	p.device += float64(a.ComputeNS + a.ExposedNS + a.RematNS + a.FaultNS)
	p.completed += float64(t.Completed)
	p.arrivals += float64(t.Arrivals)
	p.misses += float64(t.SLOViolations + t.Shed + t.QuotaShed)
	p.mispredicts += mispredicts
	p.resolved += resolved
	p.p50 = append(p.p50, float64(t.P50NS)/1e6)
	p.p99 = append(p.p99, float64(t.P99NS)/1e6)
}

// metrics are the pooled figures: request-weighted device time, mispredict
// and SLO-miss rates, and the median over streams of each stream's exact
// latency quantiles (one stream's burst moves a mean more than a median).
func (p *serving) metrics() map[string]float64 {
	return map[string]float64{
		"sim_ms_per_sample": share(p.device/1e6, p.completed),
		"mispredict_rate":   share(p.mispredicts, p.resolved),
		"sim_p50_ms":        median(p.p50),
		"sim_p99_ms":        median(p.p99),
		"slo_miss_rate":     share(p.misses, p.arrivals),
	}
}
