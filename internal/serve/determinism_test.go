package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynnoffload/internal/core"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/obsv"
)

// TestServeDeterminism is the serving layer's acceptance property: for a
// fixed (seed, config), per-tenant latency aggregates and admission/shed
// counters are bit-identical across repeated runs and at every worker
// count, with and without fault injection. Each run gets a fresh engine —
// the mis-prediction cache is part of the replayed state.
func TestServeDeterminism(t *testing.T) {
	b := testServeBench(t)
	for _, fc := range []faults.Config{{}, {Seed: 41, Rate: 0.25}} {
		run := func(workers int) *Report {
			ecfg := core.DefaultConfig(b.plat)
			if fc.Rate > 0 {
				ecfg.Faults = faults.New(fc)
			}
			cfg := twoTenants(b, 4000, 30)
			cfg.Workers = workers
			rep, err := b.run(ecfg, cfg)
			if err != nil {
				t.Fatalf("rate=%v workers=%d: %v", fc.Rate, workers, err)
			}
			return rep
		}
		want := run(1)
		// Repeated runs at the same worker count replay exactly.
		if again := run(1); !reflect.DeepEqual(want, again) {
			t.Errorf("rate=%v: repeated run diverged:\nwant %+v\ngot  %+v", fc.Rate, want, again)
		}
		for _, workers := range []int{2, 4, 8} {
			got := run(workers)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("rate=%v workers=%d diverged:\nwant %+v\ngot  %+v", fc.Rate, workers, want, got)
			}
		}
	}
}

// TestServeTraceDeterminism: the serving trace replays bit-identically
// across worker counts too (queue spans included).
func TestServeTraceDeterminism(t *testing.T) {
	b := testServeBench(t)
	run := func(workers int) string {
		cfg := twoTenants(b, 4000, 15)
		cfg.Workers = workers
		cfg.Tracer = obsv.NewTracer()
		if _, err := b.run(core.DefaultConfig(b.plat), cfg); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, sp := range cfg.Tracer.Spans() {
			fmt.Fprintf(&sb, "%d %s %s %d %d %d %d %d\n",
				sp.Sample, sp.Kind, sp.Lane, sp.Block, sp.StartNS, sp.DurNS, sp.Bytes, sp.Attempt)
		}
		return sb.String()
	}
	want := run(1)
	for _, workers := range []int{4, 8} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d: trace diverged", workers)
		}
	}
}
