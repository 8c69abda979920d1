package serve

import (
	"math"
	"reflect"
	"testing"

	"dynnoffload/internal/core"
	"dynnoffload/internal/faults"
)

func (b *bench) clusterBackend(n int, ecfg core.Config) *ClusterBackend {
	engines := make([]*core.Engine, n)
	for i := range engines {
		engines[i] = core.NewEngine(ecfg, b.p)
	}
	return &ClusterBackend{Engines: engines, Pool: b.pool}
}

func TestClusterServeBasic(t *testing.T) {
	b := testServeBench(t)
	cfg := ClusterConfig{Config: twoTenants(b, 4000, 40)}
	rep, err := RunCluster(b.clusterBackend(2, core.DefaultConfig(b.plat)), cfg)
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
	if rep.PeakActive != 2 {
		t.Errorf("no elastic scaling configured: peak active = %d, want 2", rep.PeakActive)
	}
	if len(rep.Replicas) != 2 || len(rep.Placements) != 2 {
		t.Fatalf("replica/placement views missing: %+v", rep)
	}
	var dispatched, completed int64
	for _, rs := range rep.Replicas {
		dispatched += rs.Dispatches
		completed += rs.Completed
		if rs.BusyNS < 0 || rs.Util < 0 || rs.Util > 1 {
			t.Errorf("replica %d stats out of range: %+v", rs.Replica, rs)
		}
	}
	if dispatched != rep.Total.Batches {
		t.Errorf("replica dispatches %d != batches %d", dispatched, rep.Total.Batches)
	}
	if completed != rep.Total.Completed {
		t.Errorf("replica completions %d != total %d", completed, rep.Total.Completed)
	}
	for t2, p := range rep.Placements {
		if p.Home != t2%2 {
			t.Errorf("tenant %s homed at %d, want round-robin %d", p.Tenant, p.Home, t2%2)
		}
		if p.HomeServed > p.Requests {
			t.Errorf("tenant %s: home-served %d exceeds completed %d", p.Tenant, p.HomeServed, p.Requests)
		}
	}
}

// TestClusterServeLatencyScales: under the same offered load, adding
// replicas must cut the tail — queueing is the bottleneck at this rate.
func TestClusterServeLatencyScales(t *testing.T) {
	b := testServeBench(t)
	run := func(gpus int) *ClusterReport {
		cfg := ClusterConfig{Config: twoTenants(b, 20000, 60)}
		cfg.MaxBatch = 2
		rep, err := RunCluster(b.clusterBackend(gpus, core.DefaultConfig(b.plat)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one, four := run(1), run(4)
	if one.Total.Completed == 0 || four.Total.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if four.Total.P99NS >= one.Total.P99NS {
		t.Errorf("4 replicas p99 %dns not below 1 replica p99 %dns", four.Total.P99NS, one.Total.P99NS)
	}
	if four.MakespanNS >= one.MakespanNS {
		t.Errorf("4 replicas makespan %dns not below 1 replica %dns", four.MakespanNS, one.MakespanNS)
	}
}

func TestClusterElasticScaleUp(t *testing.T) {
	b := testServeBench(t)
	cfg := ClusterConfig{
		Config:         twoTenants(b, 50000, 60),
		MinReplicas:    1,
		ScaleUpQueueNS: 1e5,
		ScaleWindow:    4,
	}
	rep, err := RunCluster(b.clusterBackend(4, core.DefaultConfig(b.plat)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakActive <= 1 {
		t.Fatalf("sustained pressure never scaled up: peak active = %d", rep.PeakActive)
	}
	if len(rep.ScaleEvents) == 0 {
		t.Fatal("no scale events recorded")
	}
	last := 1
	for _, ev := range rep.ScaleEvents {
		if ev.Reason != "scale-up" && ev.Reason != "scale-down" {
			t.Errorf("bad scale reason %q", ev.Reason)
		}
		if ev.Reason == "scale-up" && ev.Active != last+1 {
			t.Errorf("scale-up jumped from %d to %d", last, ev.Active)
		}
		last = ev.Active
	}
	// The late-activated replicas must actually absorb work.
	var beyondFirst int64
	for _, rs := range rep.Replicas[1:] {
		beyondFirst += rs.Completed
	}
	if beyondFirst == 0 {
		t.Error("scaled-up replicas served nothing")
	}
}

func TestClusterElasticScaleDown(t *testing.T) {
	b := testServeBench(t)
	cfg := ClusterConfig{
		Config: Config{
			Tenants: []TenantConfig{
				// A dense burst, then a sparse trickle: pressure first, idle after.
				{Name: "burst", Requests: 40, RatePerSec: 100000, Seed: 11, SLONS: 5e7},
				{Name: "trickle", Requests: 10, RatePerSec: 50, Seed: 23, SLONS: 5e7},
			},
			MaxBatch: 2,
			Workers:  2,
		},
		MinReplicas:     1,
		ScaleUpQueueNS:  1e5,
		ScaleWindow:     4,
		ScaleDownIdleNS: 5e6,
	}
	rep, err := RunCluster(b.clusterBackend(4, core.DefaultConfig(b.plat)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakActive <= 1 {
		t.Fatal("burst never scaled up")
	}
	var downs int
	for _, ev := range rep.ScaleEvents {
		if ev.Reason == "scale-down" {
			downs++
		}
	}
	if downs == 0 {
		t.Errorf("idle trickle never scaled down: events %+v", rep.ScaleEvents)
	}
}

// TestClusterHomeAffinity: at a light rate with all replicas free most of
// the time, tenants should mostly land on their home replica.
func TestClusterHomeAffinity(t *testing.T) {
	b := testServeBench(t)
	cfg := ClusterConfig{Config: twoTenants(b, 200, 20)}
	rep, err := RunCluster(b.clusterBackend(2, core.DefaultConfig(b.plat)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Placements {
		if p.Requests == 0 {
			t.Fatalf("tenant %s completed nothing", p.Tenant)
		}
		if p.HomeServed*2 < p.Requests {
			t.Errorf("tenant %s served at home only %d/%d under light load", p.Tenant, p.HomeServed, p.Requests)
		}
	}
}

func TestClusterConfigErrors(t *testing.T) {
	b := testServeBench(t)
	be := b.clusterBackend(2, core.DefaultConfig(b.plat))
	if _, err := RunCluster(be, ClusterConfig{}); err == nil {
		t.Error("no tenants should fail")
	}
	if _, err := RunCluster(&ClusterBackend{}, ClusterConfig{Config: twoTenants(b, 100, 5)}); err == nil {
		t.Error("empty backend should fail")
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := RunCluster(be, ClusterConfig{Config: twoTenants(b, rate, 5)}); err == nil {
			t.Errorf("rate %v should fail", rate)
		}
	}
	dup := twoTenants(b, 100, 5)
	dup.Tenants[1].Name = dup.Tenants[0].Name
	if _, err := RunCluster(be, ClusterConfig{Config: dup}); err == nil {
		t.Error("duplicate tenant names should fail")
	}
	be.Engines[1] = nil
	if _, err := RunCluster(be, ClusterConfig{Config: twoTenants(b, 100, 5)}); err == nil {
		t.Error("nil engine should fail")
	}
}

// TestClusterServeDeterminism is the cluster scheduler's acceptance
// property: placement, scaling, per-replica, and per-tenant outcomes are
// bit-identical across repeated runs and at every worker count, with and
// without fault injection.
func TestClusterServeDeterminism(t *testing.T) {
	b := testServeBench(t)
	for _, fc := range []faults.Config{{}, {Seed: 41, Rate: 0.25}} {
		run := func(workers int) *ClusterReport {
			ecfg := core.DefaultConfig(b.plat)
			if fc.Rate > 0 {
				ecfg.Faults = faults.New(fc)
			}
			cfg := ClusterConfig{
				Config:         twoTenants(b, 20000, 30),
				MinReplicas:    1,
				ScaleUpQueueNS: 1e5,
				ScaleWindow:    4,
			}
			cfg.Workers = workers
			rep, err := RunCluster(b.clusterBackend(4, ecfg), cfg)
			if err != nil {
				t.Fatalf("rate=%v workers=%d: %v", fc.Rate, workers, err)
			}
			return rep
		}
		want := run(1)
		if again := run(1); !reflect.DeepEqual(want, again) {
			t.Errorf("rate=%v: repeated run diverged:\nwant %+v\ngot  %+v", fc.Rate, want, again)
		}
		for _, workers := range []int{2, 4, 8} {
			if got := run(workers); !reflect.DeepEqual(want, got) {
				t.Errorf("rate=%v workers=%d diverged:\nwant %+v\ngot  %+v", fc.Rate, workers, want, got)
			}
		}
	}
}
