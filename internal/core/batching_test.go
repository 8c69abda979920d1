package core

import (
	"math/rand"
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/pilot"
)

// BatchedOp, DynamicBatch and mapSimulateDynamicBatch are the map-based
// batch-service model SimulateDynamicBatch replaced, kept as its oracle:
// they re-derive every forward operator's cost from the graph and merge
// through a map keyed by (depth, name).

// BatchedOp is one merged operator: Count graphs execute an operator with
// this signature at this depth.
type BatchedOp struct {
	Name  string
	Depth int
	Count int
	// FLOPs and Bytes are the summed single-graph costs.
	FLOPs int64
	Bytes int64
}

// DynamicBatch merges the resolved forward graphs of several samples by
// (depth, operator name) — operators of the same kind at the same depth
// fuse into one launch.
func DynamicBatch(graphs []*graph.Resolved) []BatchedOp {
	type key struct {
		depth int
		name  string
	}
	order := []key{}
	merged := map[key]*BatchedOp{}
	for _, g := range graphs {
		for depth, op := range g.Ops {
			k := key{depth, op.Name}
			b, ok := merged[k]
			if !ok {
				b = &BatchedOp{Name: op.Name, Depth: depth}
				merged[k] = b
				order = append(order, k)
			}
			b.Count++
			b.FLOPs += op.FLOPs
			b.Bytes += op.Bytes()
		}
	}
	out := make([]BatchedOp, 0, len(order))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	return out
}

// mapSimulateDynamicBatch evaluates the batching benefit for a set of samples
// of one model context (forward pass, which is where graphs differ).
func mapSimulateDynamicBatch(e *Engine, infos []*pilot.PathInfo) BatchingReport {
	var rep BatchingReport
	rep.Graphs = len(infos)
	var graphs []*graph.Resolved
	for _, info := range infos {
		g := &graph.Resolved{Ops: info.Iteration.Forward}
		graphs = append(graphs, g)
		for _, op := range g.Ops {
			rep.SequentialOps++
			rep.SequentialNS += e.CM.OpTime(op)
		}
	}
	batched := DynamicBatch(graphs)
	rep.BatchedLaunches = len(batched)
	launch := e.CM.Dev.LaunchNS
	for _, b := range batched {
		single := e.CM.OpTime(&graph.Op{Name: b.Name, FLOPs: b.FLOPs / int64(b.Count)})
		rep.BatchedNS += BatchedKernelTimeNS(single, launch, b.Count)
	}
	return rep
}

// TestSimulateDynamicBatchMatchesOracle compares the whole report with the
// map-based oracle for every multi-path zoo model: every batch size up to
// serve.DefaultMaxBatch (8), batches repeating a path, and batches mixing
// forward lengths. The engine runs on a different platform from the context,
// so the report must come from the engine's cost model, not the trace's
// times.
func TestSimulateDynamicBatchMatchesOracle(t *testing.T) {
	eng := NewEngine(DefaultConfig(gpusim.A100Platform()), nil)
	rng := rand.New(rand.NewSource(14))
	mixedLengths := false
	for _, entry := range dynn.Zoo() {
		ctx, err := pilot.NewModelContext(entry.New(1, 3), gpusim.NewCostModel(gpusim.RTXPlatform()), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		paths := ctx.Paths
		if len(paths) < 2 {
			continue
		}
		check := func(infos []*pilot.PathInfo) {
			t.Helper()
			if got, want := eng.SimulateDynamicBatch(infos), mapSimulateDynamicBatch(eng, infos); got != want {
				t.Fatalf("%s, batch of %d: got %+v, oracle %+v", entry.Name, len(infos), got, want)
			}
		}
		for size := 1; size <= 8; size++ {
			for draw := 0; draw < 16; draw++ {
				infos := make([]*pilot.PathInfo, size)
				for i := range infos {
					infos[i] = paths[rng.Intn(len(paths))]
				}
				check(infos)
			}
		}
		check([]*pilot.PathInfo{paths[0], paths[0], paths[1], paths[0], paths[1]})

		shortest, longest := paths[0], paths[0]
		for _, info := range paths {
			if len(info.Iteration.Forward) < len(shortest.Iteration.Forward) {
				shortest = info
			}
			if len(info.Iteration.Forward) > len(longest.Iteration.Forward) {
				longest = info
			}
		}
		if len(shortest.Iteration.Forward) != len(longest.Iteration.Forward) {
			mixedLengths = true
			check([]*pilot.PathInfo{longest, shortest, paths[1], shortest, longest})
			check([]*pilot.PathInfo{shortest, longest})
		}
	}
	if !mixedLengths {
		t.Fatal("no zoo model has forward passes of different lengths")
	}
}

// TestSimulateDynamicBatchAllocFree pins the serving dispatch cost: a warm
// batch of serve.DefaultMaxBatch (8) paths allocates nothing.
func TestSimulateDynamicBatchAllocFree(t *testing.T) {
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 1, Seed: 4})
	ctx, err := pilot.NewModelContext(m, gpusim.NewCostModel(gpusim.RTXPlatform()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	infos := make([]*pilot.PathInfo, 8)
	for i := range infos {
		infos[i] = ctx.Paths[(3*i)%len(ctx.Paths)]
	}
	eng := NewEngine(DefaultConfig(gpusim.RTXPlatform()), nil)
	eng.SimulateDynamicBatch(infos)
	if n := testing.AllocsPerRun(100, func() { eng.SimulateDynamicBatch(infos) }); n != 0 {
		t.Fatalf("SimulateDynamicBatch of 8 allocates %v times", n)
	}
}

func TestDynamicBatchMergesByDepthAndKind(t *testing.T) {
	m := dynn.NewVarLSTM(dynn.VarLSTMConfig{Hidden: 32, Batch: 1, Seed: 4})
	samples := dynn.GenerateSamples(6, 12, 8, 40)
	ctx, err := pilot.NewModelContext(m, gpusim.NewCostModel(gpusim.RTXPlatform()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var infos []*pilot.PathInfo
	for _, s := range samples {
		info, err := ctx.TruthPath(s)
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}

	eng := NewEngine(DefaultConfig(gpusim.RTXPlatform()), nil)
	rep := eng.SimulateDynamicBatch(infos)
	if rep.Graphs != len(infos) {
		t.Errorf("graphs = %d", rep.Graphs)
	}
	// Batching must reduce launches and not increase total time.
	if rep.BatchedLaunches >= rep.SequentialOps {
		t.Errorf("no merging: %d launches for %d ops", rep.BatchedLaunches, rep.SequentialOps)
	}
	if rep.BatchedNS > rep.SequentialNS {
		t.Errorf("batched %d ns slower than sequential %d ns", rep.BatchedNS, rep.SequentialNS)
	}
}

func TestBatchedKernelTime(t *testing.T) {
	if BatchedKernelTimeNS(100, 20, 1) != 100 {
		t.Error("single instance must be unchanged")
	}
	k4 := BatchedKernelTimeNS(100, 20, 4)
	// Longer than one instance (paper: batched ops run longer), but cheaper
	// than four sequential launches... per-op interference keeps it below 4x
	// plus scheduling slack.
	if k4 <= 100 {
		t.Error("batched kernel must run longer than a single instance")
	}
	if k4 >= 4*100*2 {
		t.Error("batched kernel time unreasonably large")
	}
}
