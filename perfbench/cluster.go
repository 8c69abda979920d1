package main

import (
	"fmt"
	"math"

	"dynnoffload"
)

// Cluster-online sizes: four simulated GPUs; each op trains one
// data-parallel epoch over a fixed batch of its stream's held-out samples,
// then serves
// two tenants whose combined load needs more than the one replica the
// elastic scaler starts from.
const (
	clusterGPUs         = 4
	clusterTrainSamples = 64
	clusterRatePerSec   = 200.0
	clusterRequests     = 1200
)

// clusterOnline is the cluster-online workload: Cluster.TrainEpoch (ring
// all-reduce on the modelled interconnect) followed by Cluster.Serve with
// elastic scaling and per-tenant online pilot learning, on Tree-CNN. Op i
// runs stream i mod serveStreams.
type clusterOnline struct {
	seed    uint64
	data    corpus
	cluster *dynnoffload.Cluster
	cfgs    []dynnoffload.ClusterConfig

	// Per stream: the first op's reports, their fingerprint, and the
	// serving run's global recorder counters.
	epochs   []*dynnoffload.ClusterEpochReport
	serves   []*dynnoffload.ClusterReport
	digests  []string
	counters []map[string]float64
}

func newClusterOnline(seed uint64) *clusterOnline {
	return &clusterOnline{seed: seed, data: newCorpus(seed, streamCorpusA, serveStreams)}
}

// newCluster builds and trains a cluster at the given worker count.
func (w *clusterOnline) newCluster(workers int) (*dynnoffload.Cluster, error) {
	m, err := dynnoffload.ZooModel("Tree-CNN", defaults.Batch, defaults.Seed)
	if err != nil {
		return nil, err
	}
	c, err := dynnoffload.NewCluster(m,
		dynnoffload.WithGPUs(clusterGPUs),
		dynnoffload.WithOnlineLearning(onlineConfig(w.seed)),
		dynnoffload.WithSystemOptions(
			dynnoffload.WithWorkers(workers),
			dynnoffload.WithMemoryPressure(defaults.PressureFraction),
			dynnoffload.WithPilotConfig(pilotConfig())))
	if err != nil {
		return nil, fmt.Errorf("cluster-online: %w", err)
	}
	if _, err := c.TrainPilot(w.data.train); err != nil {
		return nil, fmt.Errorf("cluster-online: %w", err)
	}
	return c, nil
}

func (w *clusterOnline) setup() error {
	w.epochs = make([]*dynnoffload.ClusterEpochReport, serveStreams)
	w.serves = make([]*dynnoffload.ClusterReport, serveStreams)
	w.digests = make([]string, serveStreams)
	w.counters = make([]map[string]float64, serveStreams)
	c, err := w.newCluster(2)
	if err != nil {
		return err
	}
	mem := c.System().Platform().GPU.MemBytes
	w.cluster = c
	w.cfgs = w.cfgs[:0]
	for s := 0; s < serveStreams; s++ {
		w.cfgs = append(w.cfgs, dynnoffload.ClusterConfig{
			Config: dynnoffload.ServeConfig{Tenants: []dynnoffload.ServeTenant{
				{Name: "alpha", Requests: clusterRequests * 6 / 10, RatePerSec: clusterRatePerSec * 0.6,
					Seed: arrivalSeed(w.seed, s, 0), SLONS: 40e6, QuotaBytes: mem},
				{Name: "beta", Requests: clusterRequests * 4 / 10, RatePerSec: clusterRatePerSec * 0.4,
					Seed: arrivalSeed(w.seed, s, 1), SLONS: 80e6, QuotaBytes: mem * 3 / 4},
			}},
			MinReplicas:     1,
			ScaleUpQueueNS:  20e6,
			ScaleDownIdleNS: 100e6,
		})
	}
	_, _, _, err = w.run(c, 0, w.cfgs[0], nil, 0, 0)
	return err
}

// run is one op of stream s on cluster c: a training epoch, then a serving
// run, both checked. It returns the reports and their simulated
// fingerprint.
func (w *clusterOnline) run(c *dynnoffload.Cluster, s int, cfg dynnoffload.ClusterConfig, sp *spans, op, parent int) (*dynnoffload.ClusterEpochReport, *dynnoffload.ClusterReport, string, error) {
	pool := w.data.test[s]
	batch := pool[:clusterTrainSamples]
	id := sp.start("dynnoffload.Cluster.TrainEpoch", op, parent)
	er, err := c.TrainEpoch(batch)
	sp.end(id)
	if err != nil {
		return nil, nil, "", fmt.Errorf("cluster-online: %w", err)
	}
	if er.Report.Samples != len(batch) {
		return nil, nil, "", fmt.Errorf("cluster-online: %d samples trained, %d given", er.Report.Samples, len(batch))
	}
	id = sp.start("dynnoffload.Cluster.Serve", op, parent)
	sr, err := c.Serve(pool, cfg)
	sp.end(id)
	if err != nil {
		return nil, nil, "", fmt.Errorf("cluster-online: %w", err)
	}
	if err := checkServe(sr.Total, sr.Tenants); err != nil {
		return nil, nil, "", fmt.Errorf("cluster-online: %w", err)
	}
	if on := sr.Total.Online; on == nil || on.Observed != sr.Total.Completed {
		return nil, nil, "", fmt.Errorf("cluster-online: online learning observed %v of %d completions", on, sr.Total.Completed)
	}
	d, err := digest(struct {
		Epoch dynnoffload.ClusterEpochReport
		Serve *dynnoffload.ClusterReport
	}{simCluster(*er), sr})
	return er, sr, d, err
}

// op runs one stream. The cluster builds fresh engines and a fresh learner
// per call, so an op must replay the first op of its stream exactly.
func (w *clusterOnline) op(i int, sp *spans, parent int) (int, error) {
	s := i % serveStreams
	cfg := w.cfgs[s]
	cfg.Registry = dynnoffload.NewMetricsRegistry()
	er, sr, d, err := w.run(w.cluster, s, cfg, sp, i, parent)
	if err != nil {
		return 0, err
	}
	switch {
	case w.digests[s] == "":
		if w.counters[s], err = promCounters(cfg.Registry); err != nil {
			return 0, err
		}
		w.epochs[s], w.serves[s], w.digests[s] = er, sr, d
	case d != w.digests[s]:
		return 0, fmt.Errorf("cluster-online: op %d's simulated reports differ from stream %d's first", i, s)
	}
	return er.Report.Samples + int(sr.Total.Completed), nil
}

// verify builds a one-worker cluster from the same inputs and requires the
// first op's reports from it.
func (w *clusterOnline) verify() error {
	c, err := w.newCluster(1)
	if err != nil {
		return err
	}
	_, _, d, err := w.run(c, 0, w.cfgs[0], nil, 0, 0)
	if err != nil {
		return err
	}
	if d != w.digests[0] {
		return fmt.Errorf("cluster-online: the 1-worker reports differ from the 2-worker op")
	}
	return nil
}

// simulated pools the streams: serving figures as serve-tenants does,
// mispredictions from online learning, and epoch makespan per sample.
func (w *clusterOnline) simulated() (map[string]float64, error) {
	var p serving
	var makespan, samples float64
	for s, sr := range w.serves {
		on := sr.Total.Online
		p.add(&sr.Report, float64(on.Mispredicts), float64(on.Observed))
		makespan += float64(w.epochs[s].MakespanNS)
		samples += float64(w.epochs[s].Report.Samples)
	}
	m := p.metrics()
	m["sim_ms_per_sample"] = makespan / 1e6 / samples
	return m, nil
}

func (w *clusterOnline) layers(sp *spans, ops opSpans) (map[string]float64, error) {
	sys := w.cluster.System()
	sr, er := w.serves[0], w.epochs[0]
	batch := max(1, int(math.Round(sr.MeanBatchSize)))
	f, err := replayAll(sp, []replayInput{{
		model: sys.Context().Model, plat: sys.Platform(), train: w.data.train, test: w.data.test[0],
		memo: true, fresh: true, batch: batch, workers: 2,
		online: onlineConfig(w.seed), tenants: len(w.cfgs[0].Tenants),
	}})
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	f.metrics(m)
	breakdownShares(m, er.Report.Breakdown, er.Report.Samples, sys.Platform().GPU.MemBytes)
	serveLayer(m, &sr.Report)
	c := w.counters[0]
	m["core.mispredict_cache_hit_share"] = share(c["dynn_cache_hits_total"], c["dynn_samples_total"])

	m["serve.scale_events_per_op"] = float64(len(sr.ScaleEvents))
	m["serve.peak_active"] = float64(sr.PeakActive)
	lo, hi := math.Inf(1), 0.0
	for _, r := range sr.Replicas {
		lo, hi = math.Min(lo, r.Util), math.Max(hi, r.Util)
	}
	m["serve.replica_util_min"], m["serve.replica_util_max"] = lo, hi

	on := sr.Total.Online
	m["online.retrains_per_op"] = float64(on.Retrains)
	m["online.last_window_rate"] = on.LastWindowRate()

	m["distributed.allreduce_share"] = share(float64(er.AllReduceNS), float64(er.MakespanNS))
	m["distributed.comm_mib_per_step"] = share(float64(er.CommBytes)/(1<<20), float64(er.Steps))
	for _, l := range er.Links {
		m["distributed.link_util_max"] = math.Max(m["distributed.link_util_max"], l.Util)
	}

	done := float64(sr.Total.Completed)
	trained := float64(er.Report.Samples)
	observes, retrains := float64(on.Observed-on.Retrains), float64(on.Retrains)
	onlineUS := f.observeUS*observes + f.retrainMS*1e3*retrains
	serveUS := ops.callUS["dynnoffload.Cluster.Serve"]
	pool := float64(len(w.data.test[0]))
	m["serve.host_share"] = share(serveUS, ops.opUS)
	m["serve.residual_share"] = share(serveUS-f.examplesUS*pool-f.batchUS*done-onlineUS, ops.opUS)
	m["distributed.host_share"] = share(ops.callUS["dynnoffload.Cluster.TrainEpoch"], ops.opUS)
	opLedger(m, ops, f, ledgerCounts{
		examples: pool + trained, resolves: done + trained, simulates: done + trained,
		observes: observes, retrains: retrains,
	})
	return m, nil
}
