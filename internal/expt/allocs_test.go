package expt

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dynnoffload/internal/core"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/online"
	"dynnoffload/internal/pilot"
	"dynnoffload/internal/serve"
)

// pinnedToolchain returns the Go release TestHotPathAllocs' ceilings were
// measured with: the toolchain line of the module's go.mod, the one place
// that names it (.github/workflows/ci.yml installs the same release).
func pinnedToolchain(t *testing.T) string {
	t.Helper()
	mod, err := os.ReadFile(filepath.Join("..", "..", "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "toolchain "); ok {
			return strings.TrimSpace(v)
		}
	}
	t.Fatal("go.mod has no toolchain line")
	return ""
}

// TestHotPathAllocs caps the heap allocations of the runtime's hot loops on
// the Tree-LSTM bench. Allocation counts, unlike host ns/op, do not drift
// with machine load, so an extra allocation on any of these paths fails
// tier-1 deterministically. Host time is measured by `make bench`
// (testing.B, -count, benchstat) and by perfbench's paired whole runs; the
// simulated cost model is pinned by the goldens.
//
// Each ceiling is the count measured with go.mod's toolchain; the counts read
// the same under -coverprofile. The five single-operation loops get no
// slack. The serving run makes about 101 dispatches for 200 requests and its
// mean over three runs reads 2,074 to 2,076 (also under -count=5 -cpu 1,2,4
// and GOGC=1), so its ceiling carries a slack of 25: wider than that spread,
// well below the 101 that one extra allocation per dispatch adds. A leaner
// path passes; lower its pin to keep the gain. Other toolchains inline, escape and lay out maps differently, so
// they skip rather than fail on unchanged code.
func TestHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("workbench construction is expensive")
	}
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	pinned := pinnedToolchain(t)
	if v, _, _ := strings.Cut(runtime.Version(), " "); v != pinned {
		t.Skipf("allocation gate OFF: its pins are for go.mod's toolchain %s, this is %s", pinned, v)
	}
	w := testWorkbench(t)
	mb := w.Bench("Tree-LSTM")
	info := mb.Ctx.Paths[0]
	const runs = 50

	static := mb.Model.Static()
	decisions := make([][]int, 0, len(mb.Test))
	for _, ex := range mb.Test {
		decisions = append(decisions, mb.Model.Decide(ex.Sample))
	}

	warm := w.Engine(mb)
	warm.SimulatePartition(info.Analysis, info.Blocks)

	// Cold engines are built outside the measured function (one more for
	// AllocsPerRun's warm-up call), so each run pays one plan compilation
	// plus the simulation it feeds.
	cold := make([]*core.Engine, runs+1)
	for i := range cold {
		cold[i] = core.NewEngine(core.DefaultConfig(mb.Platform), w.Pilot)
	}

	// Warm the shared plan cache with every truth path the test pool
	// exercises, then look plans up by the keys engines file them under.
	if _, err := warm.RunBatch(mb.Test, core.EpochOptions{Workers: w.Opts.Workers}); err != nil {
		t.Fatal(err)
	}
	capacity := mb.Platform.GPU.MemBytes
	var keys []*pilot.PathInfo
	for _, ex := range mb.Test {
		keys = append(keys, ex.Ctx.PathByKey(ex.TruthKey))
	}
	if len(keys) == 0 {
		t.Fatal("no plan-cache keys to probe")
	}

	// TrainingInterval 1 makes every Observe a full retrain; the ring is
	// filled past the minibatch size first so each retrain samples at the
	// steady-state width.
	learner, err := online.New(online.Config{Enabled: true, TrainingInterval: 1}, w.Pilot, 0)
	if err != nil {
		t.Fatal(err)
	}
	observe := func(i int) {
		if _, err := learner.Observe(0, mb.Test[i%len(mb.Test)], i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		observe(i)
	}

	// A saturating single-tenant stream through the serving front end on one
	// engine that shares the plan cache; the queue holds every request.
	const requests = 200
	serveRun := func() {
		cfg := core.DefaultConfig(mb.Platform)
		cfg.Plans = w.Plans
		backend := &serve.ClusterBackend{Engines: []*core.Engine{core.NewEngine(cfg, w.Pilot)}, Pool: mb.Test}
		rep, err := serve.RunCluster(backend, serve.ClusterConfig{Config: serve.Config{
			Tenants: []serve.TenantConfig{{
				Name: "bench", Requests: requests, RatePerSec: 1e6,
				Seed: w.Opts.Seed + 7, MaxQueue: requests,
			}},
			Workers: w.Opts.Workers,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total.Completed != requests {
			t.Fatalf("served %d of %d requests", rep.Total.Completed, requests)
		}
	}

	var i int
	for _, tc := range []struct {
		name       string
		runs       int
		pin, slack float64
		fn         func()
	}{
		{"graph_resolve", runs, 10, 0, func() {
			if _, err := graph.Resolve(static, decisions[i%len(decisions)]); err != nil {
				t.Fatal(err)
			}
			i++
		}},
		{"des_iteration", runs, 0, 0, func() { warm.SimulatePartition(info.Analysis, info.Blocks) }},
		{"plan_cache_miss", runs, 15, 0, func() {
			cold[i].SimulatePartition(info.Analysis, info.Blocks)
			i++
		}},
		{"plan_cache_hit", runs, 0, 0, func() {
			if _, ok := w.Plans.Lookup(keys[i%len(keys)], capacity); !ok {
				t.Fatal("plan cache cold after warmup")
			}
			i++
		}},
		{"online_retrain", runs, 5, 0, func() { observe(i); i++ }},
		{"serve_run", 3, 2075, 25, serveRun},
	} {
		i = 0
		got := testing.AllocsPerRun(tc.runs, tc.fn)
		t.Logf("%s: %.0f allocs/op", tc.name, got)
		if got > tc.pin+tc.slack {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f+%.0f", tc.name, got, tc.pin, tc.slack)
		}
	}
}
