package dynnoffload

import (
	"fmt"

	"dynnoffload/internal/core"
	"dynnoffload/internal/distributed"
	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/serve"
)

// Re-exported cluster runtime types. Topology wires the simulated
// interconnect; ClusterEpochReport is a data-parallel training epoch's
// outcome; ClusterConfig/Placement/ClusterReport cover cluster serving, so
// cmd/* and downstream users import only this package.
type (
	Topology           = distributed.Topology
	ClusterEpochReport = distributed.EpochReport
	LinkSpec           = gpusim.LinkSpec
	LinkStats          = gpusim.LinkStats

	ClusterConfig = serve.ClusterConfig
	Placement     = serve.Placement
	ReplicaStats  = serve.ReplicaStats
	ScaleEvent    = serve.ScaleEvent
	ClusterReport = serve.ClusterReport
)

// Re-exported span tracing types: pass a Tracer built with
// NewTracer(WithAbsoluteTime()) to WithClusterTracer and write the collected
// spans with WriteChromeTrace.
type (
	Tracer       = obsv.Tracer
	TracerOption = obsv.TracerOption
	Span         = obsv.Span
	ChromeMeta   = obsv.ChromeMeta
)

var (
	NewTracer        = obsv.NewTracer
	WithAbsoluteTime = obsv.WithAbsoluteTime
	WriteChromeTrace = obsv.WriteChromeTrace
)

var (
	// DefaultTopology derives cluster wiring from a platform: its inter-GPU
	// link inside a node, its PCIe link across nodes.
	DefaultTopology = distributed.DefaultTopology
	// RingAllReduceNS is the closed-form ring all-reduce oracle the DES
	// schedule is validated against.
	RingAllReduceNS = distributed.RingAllReduceNS
	// ErrBadCluster covers invalid cluster configurations.
	ErrBadCluster = distributed.ErrBadCluster
)

// clusterSettings is the resolved configuration a Cluster runs under;
// NewCluster and System.Cluster assemble it from functional options.
type clusterSettings struct {
	gpus     int
	tracer   *Tracer
	onDemand bool
	online   OnlineConfig
	sysOpts  []Option
}

// ClusterOption mutates the cluster settings during NewCluster.
type ClusterOption func(*clusterSettings)

// WithGPUs sets the data-parallel width: one simulated GPU (one engine, one
// allocator, its own streams) per replica. Default 1.
func WithGPUs(n int) ClusterOption { return func(c *clusterSettings) { c.gpus = n } }

// WithClusterTracer collects per-GPU engine spans plus allreduce/offload link
// spans on the shared cluster clock. Build the tracer with
// NewTracer(WithAbsoluteTime()) — dispatches on different GPUs genuinely
// overlap in virtual time.
func WithClusterTracer(tr *Tracer) ClusterOption {
	return func(c *clusterSettings) { c.tracer = tr }
}

// WithOnDemandServing makes Serve's replica engines run every request fully
// on demand instead of memoizing repeated samples — the always-on-demand
// baseline the serving evaluation compares against.
func WithOnDemandServing() ClusterOption {
	return func(c *clusterSettings) { c.onDemand = true }
}

// WithOnlineLearning turns on the serve→pilot feedback loop for this
// cluster's Serve runs: completed requests feed a bounded replay memory and
// the shared pilot retrains in-loop (per-tenant adapters when
// cfg.PerTenant). A ClusterConfig whose Online field is already enabled
// takes precedence over this default.
func WithOnlineLearning(cfg OnlineConfig) ClusterOption {
	cfg.Enabled = true
	return func(c *clusterSettings) { c.online = cfg }
}

// WithSystemOptions forwards options to the underlying NewSystem call
// (platform, pilot config, workers, fault injection). Only valid with
// NewCluster; System.Cluster already has its system.
func WithSystemOptions(opts ...Option) ClusterOption {
	return func(c *clusterSettings) { c.sysOpts = append(c.sysOpts, opts...) }
}

// Cluster couples a System with the cluster DES runtime: N engines on a
// shared virtual clock contending for a modeled interconnect, for
// data-parallel training epochs and replicated serving.
type Cluster struct {
	sys      *System
	gpus     int
	topology Topology
	grad     int64
	tracer   *Tracer
	onDemand bool
	online   OnlineConfig
}

// NewCluster builds a cluster over a fresh System for the model:
//
//	c, err := dynnoffload.NewCluster(model,
//		dynnoffload.WithGPUs(4),
//		dynnoffload.WithSystemOptions(dynnoffload.WithPlatform(dynnoffload.A100Platform())),
//	)
//
// Train the pilot once through c.TrainPilot (or c.System()), then TrainEpoch
// and Serve share it across every simulated GPU.
func NewCluster(model Model, opts ...ClusterOption) (*Cluster, error) {
	cs := clusterSettings{gpus: 1}
	for _, o := range opts {
		o(&cs)
	}
	sys, err := NewSystem(model, cs.sysOpts...)
	if err != nil {
		return nil, err
	}
	return sys.cluster(cs)
}

// Cluster builds a cluster runtime over this system (its platform, pilot,
// worker pool, and fault config). WithSystemOptions is rejected here — the
// system is already built.
func (s *System) Cluster(opts ...ClusterOption) (*Cluster, error) {
	cs := clusterSettings{gpus: 1}
	for _, o := range opts {
		o(&cs)
	}
	if len(cs.sysOpts) > 0 {
		return nil, fmt.Errorf("%w: WithSystemOptions applies to NewCluster, not System.Cluster", ErrBadCluster)
	}
	return s.cluster(cs)
}

func (s *System) cluster(cs clusterSettings) (*Cluster, error) {
	if cs.gpus < 1 {
		return nil, fmt.Errorf("%w: GPUs = %d", ErrBadCluster, cs.gpus)
	}
	// The interconnect is the platform's default wiring, and each training
	// step ring-all-reduces the model's whole gradient footprint.
	c := &Cluster{
		sys: s, gpus: cs.gpus, topology: DefaultTopology(s.cfg.Platform),
		tracer: cs.tracer, onDemand: cs.onDemand, online: cs.online,
	}
	for _, ws := range s.cfg.Model.WeightStates() {
		c.grad += ws.Grad.Bytes()
	}
	// Validate the wiring now, not on first use.
	if _, err := distributed.New(c.trainConfig(), c.engines()); err != nil {
		return nil, err
	}
	return c, nil
}

// System exposes the underlying single-device system (pilot training,
// tracing, runners).
func (c *Cluster) System() *System { return c.sys }

// GPUs reports the cluster width.
func (c *Cluster) GPUs() int { return c.gpus }

// TrainPilot trains the shared pilot model; every simulated GPU serves from
// it afterwards.
func (c *Cluster) TrainPilot(samples []*dynn.Sample) (TrainResult, error) {
	return c.sys.TrainPilot(samples)
}

func (c *Cluster) trainConfig() distributed.Config {
	return distributed.Config{
		GPUs: c.gpus, Topology: c.topology, GradBytes: c.grad,
		Workers: c.sys.cfg.Workers, Tracer: c.tracer,
	}
}

// engines builds one fresh training engine per GPU sharing the system's
// pilot: each gets its own allocator, streams, fault injector, and
// mis-prediction cache, so runs replay bit-identically.
func (c *Cluster) engines() []*core.Engine {
	engines := make([]*core.Engine, c.gpus)
	for i := range engines {
		engines[i] = core.NewEngine(c.sys.engineConfig(), c.sys.pilot)
	}
	return engines
}

// TrainEpoch runs one data-parallel epoch: samples shard round-robin across
// the GPUs, each GPU's offload traffic books onto its node's host/PCIe link,
// and gradients synchronize through a scheduled ring all-reduce contending
// for the same wires. Identical inputs replay bit-identical simulated
// aggregates at any worker count.
func (c *Cluster) TrainEpoch(samples []*dynn.Sample) (*ClusterEpochReport, error) {
	if c.sys.pilot == nil {
		return nil, fmt.Errorf("dynnoffload: %w (call TrainPilot)", ErrPilotNotTrained)
	}
	exs, err := c.sys.Examples(samples)
	if err != nil {
		return nil, err
	}
	dc, err := distributed.New(c.trainConfig(), c.engines())
	if err != nil {
		return nil, err
	}
	return dc.TrainEpoch(exs)
}

// Serve runs the multi-tenant serving front-end across the cluster's GPU
// replicas: one shared admission queue, home-affinity placement with
// least-loaded spill, per-replica memory capacities, and (when configured)
// elastic replica scaling on sustained queue-delay pressure. It shares its
// serving path and engine builder with System.Serve, so a one-GPU cluster
// serves exactly as the system does.
func (c *Cluster) Serve(pool []*dynn.Sample, cfg ClusterConfig) (*ClusterReport, error) {
	if cfg.Tracer == nil {
		cfg.Tracer = c.tracer
	}
	if !cfg.Online.Enabled {
		cfg.Online = c.online
	}
	return c.sys.serve(pool, cfg, c.gpus, c.onDemand)
}
