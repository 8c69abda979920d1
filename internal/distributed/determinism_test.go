package distributed

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynnoffload/internal/core"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/obsv"
)

// stripWall zeroes the report fields measured in host wall time (pilot
// inference and output-mapping latency) — the same projection the core
// determinism tests apply. Everything else in a cluster report is virtual
// time and must replay exactly.
func stripWall(rep *EpochReport) {
	clear := func(er *core.EpochReport) {
		er.PilotNS, er.MappingNS = 0, 0
	}
	clear(&rep.Report)
	for i := range rep.PerGPU {
		clear(&rep.PerGPU[i])
	}
}

// TestClusterEpochDeterminism is the cluster runtime's acceptance property,
// mirroring serve/determinism_test.go: for a fixed (seed, config), the
// cluster epoch report — merged aggregates, per-GPU aggregates, link stats,
// and the shared-clock makespan — is bit-identical across repeated runs and
// at every worker count, with and without fault injection. Engines are
// rebuilt per run: the mis-prediction caches are part of the replayed state.
func TestClusterEpochDeterminism(t *testing.T) {
	b := testClusterBench(t)
	for _, fc := range []faults.Config{{}, {Seed: 41, Rate: 0.25}} {
		run := func(workers int) *EpochReport {
			engines := make([]*core.Engine, 4)
			for i := range engines {
				ecfg := core.DefaultConfig(b.plat)
				if fc.Rate > 0 {
					ecfg.Faults = faults.New(fc)
				}
				engines[i] = core.NewEngine(ecfg, b.p)
			}
			topo := DefaultTopology(b.plat)
			topo.GPUsPerNode = 2
			c, err := New(Config{GPUs: 4, Topology: topo, GradBytes: 1 << 22, Workers: workers}, engines)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.TrainEpoch(b.exs)
			if err != nil {
				t.Fatalf("rate=%v workers=%d: %v", fc.Rate, workers, err)
			}
			stripWall(rep)
			return rep
		}
		want := run(1)
		if again := run(1); !reflect.DeepEqual(want, again) {
			t.Errorf("rate=%v: repeated run diverged:\nwant %+v\ngot  %+v", fc.Rate, want, again)
		}
		for _, workers := range []int{2, 4, 8} {
			if got := run(workers); !reflect.DeepEqual(want, got) {
				t.Errorf("rate=%v workers=%d diverged:\nwant %+v\ngot  %+v", fc.Rate, workers, got, want)
			}
		}
	}
}

// TestClusterTraceDeterminism: the absolute-clock cluster trace — engine
// spans laid at each GPU's virtual clock plus allreduce/offload link spans —
// replays bit-identically across worker counts.
func TestClusterTraceDeterminism(t *testing.T) {
	b := testClusterBench(t)
	run := func(workers int) string {
		engines := make([]*core.Engine, 2)
		for i := range engines {
			engines[i] = core.NewEngine(core.DefaultConfig(b.plat), b.p)
		}
		tracer := obsv.NewTracer(obsv.WithAbsoluteTime())
		topo := DefaultTopology(b.plat)
		c, err := New(Config{GPUs: 2, Topology: topo, GradBytes: 1 << 20, Workers: workers, Tracer: tracer}, engines)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.TrainEpoch(b.exs[:12]); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, sp := range tracer.Spans() {
			fmt.Fprintf(&sb, "%d %s %s %d %d %d %d %d\n",
				sp.Sample, sp.Kind, sp.Lane, sp.Block, sp.StartNS, sp.DurNS, sp.Bytes, sp.Attempt)
		}
		return sb.String()
	}
	want := run(1)
	if !strings.Contains(want, string(obsv.SpanAllReduce)) {
		t.Fatal("trace has no allreduce spans")
	}
	if !strings.Contains(want, string(obsv.SpanOffload)) {
		t.Fatal("trace has no offload link spans")
	}
	for _, workers := range []int{4, 8} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d: cluster trace diverged", workers)
		}
	}
}
