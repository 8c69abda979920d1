package serve

import (
	"reflect"
	"testing"

	"dynnoffload/internal/core"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/online"
)

// onlineConfig is the learning setup the serve-layer property tests run:
// per-tenant adapters on, short interval so retrains actually fire inside
// small CI-scale runs.
func onlineConfig(observeOnly bool) online.Config {
	return online.Config{
		Enabled:            true,
		ObserveOnly:        observeOnly,
		TrainingInterval:   4,
		MinibatchSize:      8,
		WindowSize:         10,
		PerTenant:          true,
		AdapterMinExamples: 6,
		Seed:               17,
	}
}

// TestServeOnlineZeroValueIsInert pins backwards compatibility: a zero-value
// Config.Online must reproduce the pre-online serving behavior byte for byte
// — same report, no online section, no pilot_retrain attribution.
func TestServeOnlineZeroValueIsInert(t *testing.T) {
	b := testServeBench(t)
	run := func(explicitZero bool) *Report {
		cfg := twoTenants(b, 4000, 30)
		if explicitZero {
			cfg.Online = online.Config{}
		}
		rep, err := b.run(core.DefaultConfig(b.plat), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base, zero := run(false), run(true)
	if !reflect.DeepEqual(base, zero) {
		t.Errorf("zero-value Online changed the report:\nwant %+v\ngot  %+v", base, zero)
	}
	if base.Total.Online != nil {
		t.Error("disabled run grew an online stats section")
	}
	if base.Total.Attribution != nil && base.Total.Attribution.All.PilotRetrainNS != 0 {
		t.Errorf("disabled run charged pilot_retrain time: %d", base.Total.Attribution.All.PilotRetrainNS)
	}
}

// TestServeObserveOnlyMatchesDisabled: the frozen control arm must predict,
// schedule, and attribute identically to a run with learning off — the only
// difference is the online stats section riding on the report.
func TestServeObserveOnlyMatchesDisabled(t *testing.T) {
	b := testServeBench(t)
	run := func(enabled bool) *Report {
		cfg := twoTenants(b, 4000, 30)
		if enabled {
			cfg.Online = onlineConfig(true)
		}
		rep, err := b.run(core.DefaultConfig(b.plat), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	disabled, frozen := run(false), run(true)
	if frozen.Total.Online == nil {
		t.Fatal("ObserveOnly run carries no online stats")
	}
	if frozen.Total.Online.Retrains != 0 || frozen.Total.Online.RetrainNS != 0 {
		t.Fatalf("ObserveOnly retrained: %+v", frozen.Total.Online)
	}
	if frozen.Total.Online.Observed != frozen.Total.Completed {
		t.Errorf("observed %d != completed %d", frozen.Total.Online.Observed, frozen.Total.Completed)
	}
	frozen.Total.Online = nil
	if !reflect.DeepEqual(disabled, frozen) {
		t.Errorf("ObserveOnly diverged from disabled:\nwant %+v\ngot  %+v", disabled, frozen)
	}
}

// TestServeOnlineDeterminism extends the serving layer's acceptance property
// to in-loop learning: with retrains firing and per-tenant adapters warming,
// the report stays bit-identical across repeated runs and at every worker
// count, fault-free and faulted.
func TestServeOnlineDeterminism(t *testing.T) {
	b := testServeBench(t)
	for _, fc := range []faults.Config{{}, {Seed: 41, Rate: 0.25}} {
		run := func(workers int) *Report {
			ecfg := core.DefaultConfig(b.plat)
			if fc.Rate > 0 {
				ecfg.Faults = faults.New(fc)
			}
			cfg := twoTenants(b, 4000, 30)
			cfg.Workers = workers
			cfg.Online = onlineConfig(false)
			rep, err := b.run(ecfg, cfg)
			if err != nil {
				t.Fatalf("rate=%v workers=%d: %v", fc.Rate, workers, err)
			}
			return rep
		}
		want := run(1)
		if want.Total.Online == nil || want.Total.Online.Retrains == 0 {
			t.Fatalf("rate=%v: learning never fired — the property would be vacuous: %+v",
				fc.Rate, want.Total.Online)
		}
		if again := run(1); !reflect.DeepEqual(want, again) {
			t.Errorf("rate=%v: repeated online run diverged:\nwant %+v\ngot  %+v", fc.Rate, want, again)
		}
		for _, workers := range []int{2, 4, 8} {
			if got := run(workers); !reflect.DeepEqual(want, got) {
				t.Errorf("rate=%v workers=%d diverged:\nwant %+v\ngot  %+v", fc.Rate, workers, got, want)
			}
		}
	}
}

// TestServeOnlineRetrainAttribution: when retrains stall the host timeline,
// the cost lands in the pilot_retrain component and the decomposition stays
// exact (TotalNS equals the summed end-to-end latency, checked by obsv's
// attribution invariants downstream).
func TestServeOnlineRetrainAttribution(t *testing.T) {
	b := testServeBench(t)
	cfg := twoTenants(b, 8000, 40)
	oc := onlineConfig(false)
	oc.RetrainCostNS = 50_000 // large enough that queued requests overlap a stall
	cfg.Online = oc
	rep, err := b.run(core.DefaultConfig(b.plat), cfg)
	if err != nil {
		t.Fatal(err)
	}
	on := rep.Total.Online
	if on == nil || on.Retrains == 0 {
		t.Fatalf("no retrains fired: %+v", on)
	}
	if rep.Total.Attribution == nil {
		t.Fatal("no attribution")
	}
	if rep.Total.Attribution.All.PilotRetrainNS <= 0 {
		t.Error("retrain stalls never attributed to pilot_retrain")
	}
	if on.RetrainNS <= 0 {
		t.Error("retrain cost not accounted")
	}
	if on.AdapterTenants == 0 {
		t.Error("per-tenant adapters never warmed")
	}
	if len(on.WindowRates) == 0 {
		t.Error("no mispredict windows closed")
	}
}

// TestClusterOnlineDeterminism mirrors the cluster acceptance property with
// learning on: elastic scaling, replica placement, and the retrain schedule
// replay bit-identically at any worker count, fault-free and faulted.
func TestClusterOnlineDeterminism(t *testing.T) {
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
			cfg.Online = onlineConfig(false)
			rep, err := RunCluster(b.clusterBackend(4, ecfg), cfg)
			if err != nil {
				t.Fatalf("rate=%v workers=%d: %v", fc.Rate, workers, err)
			}
			return rep
		}
		want := run(1)
		if want.Total.Online == nil || want.Total.Online.Retrains == 0 {
			t.Fatalf("rate=%v: cluster learning never fired: %+v", fc.Rate, want.Total.Online)
		}
		if again := run(1); !reflect.DeepEqual(want, again) {
			t.Errorf("rate=%v: repeated cluster online run diverged:\nwant %+v\ngot  %+v", fc.Rate, want, again)
		}
		for _, workers := range []int{2, 4, 8} {
			if got := run(workers); !reflect.DeepEqual(want, got) {
				t.Errorf("rate=%v workers=%d diverged:\nwant %+v\ngot  %+v", fc.Rate, workers, got, want)
			}
		}
	}
}

// TestClusterLearnsAtCompletion: the learner observes a batch when it
// finishes on the simulated clock, and the retrain stall starts there. Every
// completion retrains on a one-example minibatch, so a batch of N requests
// stalls the host for N x stallNS, longer than any batch runs. Each dispatch
// must therefore wait for the previous batch to finish and then for its
// whole stall — learning at dispatch would overlap the two.
func TestClusterLearnsAtCompletion(t *testing.T) {
	b := testServeBench(t)
	const stallNS = 10_000_000 // one retrain on a one-example minibatch
	cfg := ClusterConfig{Config: twoTenants(b, 20000, 20)}
	cfg.Flight = obsv.FlightConfig{Events: 4096}
	cfg.Online = online.Config{
		Enabled:          true,
		TrainingInterval: 1,
		MinibatchSize:    1,
		RetrainCostNS:    stallNS,
		Seed:             17,
	}
	rep, err := RunCluster(b.clusterBackend(1, core.DefaultConfig(b.plat)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dispatches []obsv.FlightEvent
	for _, snap := range rep.Flights {
		if snap.Reason != "final" {
			continue
		}
		if snap.Dropped != 0 {
			t.Fatalf("ring wrapped (%d dropped); grow Events", snap.Dropped)
		}
		for _, ev := range snap.Events {
			if ev.Kind == obsv.FlightDispatch {
				dispatches = append(dispatches, ev)
			}
		}
	}
	if len(dispatches) < 2 || int64(len(dispatches)) != rep.Total.Batches {
		t.Fatalf("%d dispatch events for %d batches", len(dispatches), rep.Total.Batches)
	}
	for i := 1; i < len(dispatches); i++ {
		prev, cur := dispatches[i-1], dispatches[i]
		if prev.DurNS >= stallNS {
			t.Fatalf("batch %d service %dns is not below the %dns stall", i-1, prev.DurNS, stallNS)
		}
		if earliest := prev.AtNS + prev.DurNS + int64(prev.N)*stallNS; cur.AtNS < earliest {
			t.Errorf("dispatch %d at %dns, before the previous batch's completion plus stall (%dns)", i, cur.AtNS, earliest)
		}
	}
	if end := dispatches[len(dispatches)-1]; rep.MakespanNS < end.AtNS+end.DurNS+int64(end.N)*stallNS {
		t.Errorf("makespan %dns leaves out the trailing stall after %dns", rep.MakespanNS, end.AtNS+end.DurNS)
	}
}
