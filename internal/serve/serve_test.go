package serve

import (
	"strings"
	"sync"
	"testing"

	"dynnoffload/internal/core"
	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// bench is the shared serving fixture: a small Tree-LSTM under memory
// pressure, a trained pilot, and a request pool. Engines are built per test
// (the mis-prediction cache is stateful).
type bench struct {
	pool []*pilot.Example
	p    *pilot.Pilot
	plat gpusim.Platform
}

var (
	benchOnce sync.Once
	benchVal  bench
)

func testServeBench(t *testing.T) *bench {
	t.Helper()
	benchOnce.Do(func() {
		m := dynn.NewTreeLSTM(dynn.TreeLSTMConfig{Levels: 4, Hidden: 64, SeqLen: 8, Batch: 4, Seed: 5})
		base := gpusim.RTXPlatform()
		probe, err := pilot.NewModelContext(m, gpusim.NewCostModel(base), 0, 0)
		if err != nil {
			panic(err)
		}
		var maxPeak, maxOp int64
		for _, info := range probe.Paths {
			if b := info.Analysis.PeakResidentBytes(); b > maxPeak {
				maxPeak = b
			}
			if b := info.Analysis.MaxSingleOpBytes(); b > maxOp {
				maxOp = b
			}
		}
		budget := maxPeak / 2
		if floor := 9 * maxOp / 4; budget < floor {
			budget = floor
		}
		plat := base.WithMemory(budget)
		ctx, err := pilot.NewModelContext(m, gpusim.NewCostModel(plat), plat.GPU.MemBytes/2, 0)
		if err != nil {
			panic(err)
		}
		samples := dynn.GenerateSamples(21, 450, 8, 48)
		exs, err := pilot.BuildExamples(ctx, pilot.FeatureConfig{}, samples)
		if err != nil {
			panic(err)
		}
		p := pilot.New(pilot.Config{Neurons: 64, Epochs: 10, Seed: 2})
		p.Train(exs[:400])
		benchVal = bench{pool: exs[400:], p: p, plat: plat}
	})
	return &benchVal
}

// run serves cfg on one replica built from ecfg and returns its serving
// report.
func (b *bench) run(ecfg core.Config, cfg Config) (*Report, error) {
	rep, err := RunCluster(b.clusterBackend(1, ecfg), ClusterConfig{Config: cfg})
	if err != nil {
		return nil, err
	}
	return &rep.Report, nil
}

// twoTenants is a moderate-load baseline config: two tenants sharing the
// device half-and-half, SLO generous enough that some requests complete in
// time.
func twoTenants(b *bench, rate float64, requests int) Config {
	half := b.plat.GPU.MemBytes / 2
	return Config{
		Tenants: []TenantConfig{
			{Name: "alpha", Requests: requests, RatePerSec: rate, Seed: 11, QuotaBytes: half, SLONS: 5e7},
			{Name: "beta", Requests: requests, RatePerSec: rate, Seed: 23, QuotaBytes: half, SLONS: 5e7},
		},
		Workers: 2,
	}
}

func TestServeBasic(t *testing.T) {
	b := testServeBench(t)
	cfg := twoTenants(b, 2000, 40)
	rep, err := b.run(core.DefaultConfig(b.plat), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Arrivals != 80 {
		t.Errorf("arrivals = %d, want 80", rep.Total.Arrivals)
	}
	if got := rep.Total.Completed + rep.Total.Shed + rep.Total.QuotaShed; got != rep.Total.Arrivals {
		t.Errorf("completed+shed = %d, arrivals = %d", got, rep.Total.Arrivals)
	}
	if rep.Total.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if rep.Total.Batches == 0 || rep.MeanBatchSize < 1 {
		t.Errorf("batching broken: %d batches, mean size %v", rep.Total.Batches, rep.MeanBatchSize)
	}
	if rep.Total.P50NS <= 0 || rep.Total.P99NS < rep.Total.P50NS || rep.Total.MaxNS < rep.Total.P999NS {
		t.Errorf("quantiles inconsistent: %+v", rep.Total)
	}
	if rep.MakespanNS <= 0 {
		t.Error("no simulated makespan")
	}
	if rep.DeviceHighWater <= 0 || rep.DeviceHighWater > b.plat.GPU.MemBytes {
		t.Errorf("device high-water %d out of range", rep.DeviceHighWater)
	}
	for _, tr := range rep.Tenants {
		if tr.Stats.QuotaPeakBytes > tr.Stats.QuotaBytes {
			t.Errorf("tenant %s peak %d exceeds quota %d", tr.Name, tr.Stats.QuotaPeakBytes, tr.Stats.QuotaBytes)
		}
	}
}

func TestServeBackpressureSheds(t *testing.T) {
	b := testServeBench(t)
	cfg := twoTenants(b, 1e6, 60) // absurd offered load
	cfg.Tenants[0].MaxQueue = 2
	cfg.Tenants[1].MaxQueue = 2
	rep, err := b.run(core.DefaultConfig(b.plat), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Shed == 0 {
		t.Errorf("overload with queue bound 2 shed nothing: %+v", rep.Total)
	}
	if rep.Total.Completed+rep.Total.Shed+rep.Total.QuotaShed != rep.Total.Arrivals {
		t.Errorf("request conservation broken: %+v", rep.Total)
	}
}

func TestServeQuotaShedsImpossible(t *testing.T) {
	b := testServeBench(t)
	cfg := twoTenants(b, 2000, 10)
	cfg.Tenants[1].QuotaBytes = 1 // nothing fits
	rep, err := b.run(core.DefaultConfig(b.plat), cfg)
	if err != nil {
		t.Fatal(err)
	}
	beta := rep.Tenants[1].Stats
	if beta.QuotaShed != beta.Arrivals || beta.Completed != 0 {
		t.Errorf("impossible quota should shed everything: %+v", beta)
	}
	alpha := rep.Tenants[0].Stats
	if alpha.Completed == 0 {
		t.Errorf("other tenant should be unaffected: %+v", alpha)
	}
}

func TestServeSLOViolationsCounted(t *testing.T) {
	b := testServeBench(t)
	cfg := twoTenants(b, 2000, 20)
	cfg.Tenants[0].SLONS = 1 // unmeetable
	cfg.Tenants[1].SLONS = 1
	rep, err := b.run(core.DefaultConfig(b.plat), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.SLOViolations != rep.Total.Completed {
		t.Errorf("1ns SLO: %d violations for %d completions", rep.Total.SLOViolations, rep.Total.Completed)
	}
}

func TestServeTracesQueueSpans(t *testing.T) {
	b := testServeBench(t)
	cfg := twoTenants(b, 5000, 15)
	cfg.Tracer = obsv.NewTracer()
	rep, err := b.run(core.DefaultConfig(b.plat), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Tracer.SampleCount(); int64(got) != rep.Total.Completed {
		t.Errorf("trace slots = %d, completed = %d", got, rep.Total.Completed)
	}
	var queueSpans int64
	for _, sp := range cfg.Tracer.Spans() {
		if sp.Kind == obsv.SpanQueue {
			queueSpans++
			if sp.StartNS < 0 || sp.DurNS < 0 {
				t.Errorf("bad queue span: %+v", sp)
			}
		}
	}
	if queueSpans != rep.Total.Completed {
		t.Errorf("queue spans = %d, completed = %d", queueSpans, rep.Total.Completed)
	}
}

func TestServeRegistryExposition(t *testing.T) {
	b := testServeBench(t)
	cfg := twoTenants(b, 5000, 10)
	cfg.Registry = obsv.NewRegistry()
	if _, err := b.run(core.DefaultConfig(b.plat), cfg); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	cfg.Registry.WritePrometheus(&sb)
	for _, want := range []string{
		`dynn_serve_arrivals_total{run="serve"}`,
		`dynn_serve_arrivals_total{run="serve/alpha",tenant="alpha"}`,
		`dynn_serve_latency_seconds{run="serve/beta",tenant="beta",quantile="0.99"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestServeConfigErrors(t *testing.T) {
	b := testServeBench(t)
	if _, err := b.run(core.DefaultConfig(b.plat), Config{}); err == nil {
		t.Error("no tenants should fail")
	}
	cfg := twoTenants(b, 0, 5) // zero rate
	if _, err := b.run(core.DefaultConfig(b.plat), cfg); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := RunCluster(&ClusterBackend{}, ClusterConfig{Config: twoTenants(b, 100, 5)}); err == nil {
		t.Error("empty backend should fail")
	}
}

// TestServeStarvationGuard: a zero-SLO tenant (deadline = +inf, always last
// under EDF) must still complete when the guard is on, and its worst-case
// wait must shrink versus a guard-disabled run under the same load.
func TestServeStarvationGuard(t *testing.T) {
	b := testServeBench(t)
	mk := func(starve int64) Config {
		// No quotas: with per-tenant caps, batch formation already
		// interleaves tenants, masking what the guard is for.
		return Config{
			Tenants: []TenantConfig{
				{Name: "premium", Requests: 60, RatePerSec: 30000, Seed: 7, SLONS: 3e6},
				{Name: "batch", Requests: 12, RatePerSec: 30000, Seed: 9},
			},
			MaxBatch:        2,
			StarvationAgeNS: starve,
			Workers:         2,
		}
	}
	guarded, err := b.run(core.DefaultConfig(b.plat), mk(2e6))
	if err != nil {
		t.Fatal(err)
	}
	unguarded, err := b.run(core.DefaultConfig(b.plat), mk(-1))
	if err != nil {
		t.Fatal(err)
	}
	g, u := guarded.Tenants[1].Stats, unguarded.Tenants[1].Stats
	if g.Completed == 0 {
		t.Fatal("no-SLO tenant starved despite guard")
	}
	if u.Completed > 0 && g.MaxNS >= u.MaxNS {
		t.Errorf("guard did not shrink worst-case wait: guarded max %dns, unguarded max %dns", g.MaxNS, u.MaxNS)
	}
}
