package dynnoffload

import (
	"errors"
	"testing"
)

func clusterFixture(t *testing.T, opts ...ClusterOption) (*Cluster, []*Sample) {
	t.Helper()
	model := NewTreeLSTM(TreeLSTMConfig{Levels: 4, Hidden: 64, SeqLen: 8, Batch: 4, Seed: 1})
	copts := append([]ClusterOption{
		WithSystemOptions(
			WithPlatform(RTXPlatform().WithMemory(MiB(16))),
			WithPilotConfig(PilotConfig{Neurons: 48, Epochs: 6, Seed: 3}),
		),
	}, opts...)
	c, err := NewCluster(model, copts...)
	if err != nil {
		t.Fatal(err)
	}
	corpus := GenerateSamples(5, 460, 8, 32)
	if _, err := c.TrainPilot(corpus[:400]); err != nil {
		t.Fatal(err)
	}
	return c, corpus[400:]
}

// TestClusterFacadeTrainEpoch: the public cluster API runs a data-parallel
// epoch and its aggregates match the single-system epoch over the same
// samples (sharding only redistributes work).
func TestClusterFacadeTrainEpoch(t *testing.T) {
	c, samples := clusterFixture(t, WithGPUs(2))
	if c.GPUs() != 2 {
		t.Fatalf("GPUs() = %d", c.GPUs())
	}
	rep, err := c.TrainEpoch(samples)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUs != 2 || rep.Report.Samples != len(samples) {
		t.Fatalf("bad report shape: gpus=%d samples=%d", rep.GPUs, rep.Report.Samples)
	}
	if rep.MakespanNS <= 0 || rep.CommBytes <= 0 || rep.AllReduceNS < 0 {
		t.Errorf("bad cluster timing: makespan=%d comm=%d allreduce=%d",
			rep.MakespanNS, rep.CommBytes, rep.AllReduceNS)
	}
	if len(rep.Links) == 0 {
		t.Error("no link stats")
	}

	single, err := c.System().TrainEpoch(samples)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Report.Samples != single.Samples ||
		rep.Report.Breakdown.ComputeNS != single.Breakdown.ComputeNS {
		t.Errorf("cluster aggregates diverge from single-system epoch:\ncluster %+v\nsingle  %+v",
			rep.Report.Breakdown, single.Breakdown)
	}
}

// TestClusterFacadeServe: cluster serving through the facade conserves
// requests and reports per-replica outcomes.
func TestClusterFacadeServe(t *testing.T) {
	c, pool := clusterFixture(t, WithGPUs(2))
	rep, err := c.Serve(pool, ClusterConfig{
		Config: ServeConfig{
			Tenants: []ServeTenant{
				{Name: "a", Requests: 24, RatePerSec: 500, Seed: 7, SLONS: 1e9},
				{Name: "b", Requests: 24, RatePerSec: 500, Seed: 8, SLONS: 1e9},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Total.Completed + rep.Total.Shed + rep.Total.QuotaShed; got != rep.Total.Arrivals {
		t.Errorf("request conservation: %d + %d + %d != %d",
			rep.Total.Completed, rep.Total.Shed, rep.Total.QuotaShed, rep.Total.Arrivals)
	}
	if len(rep.Replicas) != 2 || len(rep.Placements) != 2 {
		t.Fatalf("bad cluster report shape: %d replicas, %d placements",
			len(rep.Replicas), len(rep.Placements))
	}
	var done int64
	for _, rs := range rep.Replicas {
		done += rs.Completed
	}
	if done != rep.Total.Completed {
		t.Errorf("replica completions %d != total %d", done, rep.Total.Completed)
	}
}

// TestClusterFacadeErrors: configuration mistakes surface as ErrBadCluster /
// ErrPilotNotTrained, before any simulation runs.
func TestClusterFacadeErrors(t *testing.T) {
	model := NewTreeLSTM(TreeLSTMConfig{Levels: 4, Hidden: 64, SeqLen: 8, Batch: 4, Seed: 1})
	if _, err := NewCluster(model, WithGPUs(0)); !errors.Is(err, ErrBadCluster) {
		t.Errorf("WithGPUs(0): err = %v, want ErrBadCluster", err)
	}
	if _, err := NewCluster(nil); !errors.Is(err, ErrModelRequired) {
		t.Errorf("NewCluster(nil): err = %v, want ErrModelRequired", err)
	}
	sys, err := NewSystem(model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Cluster(WithSystemOptions(WithWorkers(2))); !errors.Is(err, ErrBadCluster) {
		t.Errorf("System.Cluster(WithSystemOptions): err = %v, want ErrBadCluster", err)
	}
	c, err := sys.Cluster(WithGPUs(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.TrainEpoch(GenerateSamples(1, 2, 8, 16)); !errors.Is(err, ErrPilotNotTrained) {
		t.Errorf("TrainEpoch before pilot: err = %v, want ErrPilotNotTrained", err)
	}
	if _, err := c.Serve(GenerateSamples(1, 2, 8, 16), ClusterConfig{
		Config: ServeConfig{Tenants: []ServeTenant{{Name: "a", Requests: 1, RatePerSec: 1}}},
	}); !errors.Is(err, ErrPilotNotTrained) {
		t.Errorf("Serve before pilot: err = %v, want ErrPilotNotTrained", err)
	}
}

// TestWithMemoryPressure: the option shrinks the simulated GPU below the
// model's footprint so offload traffic appears, and the resolved platform is
// visible through System.Platform.
func TestWithMemoryPressure(t *testing.T) {
	model := NewTreeCNN(TreeCNNConfig{Levels: 5, Channels: 24, Batch: 12, Seed: 42})
	full := RTXPlatform()
	sys, err := NewSystem(model, WithPlatform(full), WithMemoryPressure(0.5))
	if err != nil {
		t.Fatal(err)
	}
	got := sys.Platform().GPU.MemBytes
	if got >= full.GPU.MemBytes || got <= 0 {
		t.Errorf("pressure did not shrink the GPU: %d vs %d", got, full.GPU.MemBytes)
	}
	if sys.Platform().CPUMemBytes <= got {
		t.Errorf("host memory %d does not cover offload from %d", sys.Platform().CPUMemBytes, got)
	}
}

// TestClusterRingOracle: the facade-level closed form matches the paper's
// 2(g-1)/g volume formula (the DES-vs-oracle property lives in
// internal/distributed's tests).
func TestClusterRingOracle(t *testing.T) {
	link := LinkSpec{BW: 1 << 30, LatencyNS: 1000}
	if got := RingAllReduceNS(link, 1<<30, 1); got != 0 {
		t.Errorf("1 GPU ring = %d, want 0", got)
	}
	got := RingAllReduceNS(link, 1<<30, 4)
	want := int64(1.5*1e9) + 6*1000
	if got != want {
		t.Errorf("RingAllReduceNS = %d, want %d", got, want)
	}
}
