package dynnoffload

import (
	"fmt"

	"dynnoffload/internal/core"
	"dynnoffload/internal/dynn"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/online"
	"dynnoffload/internal/serve"
)

// Re-exported serving types. ServeConfig describes the tenants (offered load,
// GPU-memory quota, latency SLO) and scheduler bounds; ServeReport carries
// per-tenant and total latency aggregates on the simulated clock.
type (
	ServeConfig       = serve.Config
	ServeTenant       = serve.TenantConfig
	ServeReport       = serve.Report
	ServeTenantReport = serve.TenantReport
	ServeStats        = obsv.ServeStats
)

// Re-exported request-lifecycle observability types. AttributionComponents is
// the exact decomposition of a request's end-to-end latency into named causes
// (components sum to the latency to the nanosecond); LatencyAttribution
// aggregates it per tenant and for the p99 tail inside ServeStats. The flight
// recorder keeps a bounded per-replica ring of lifecycle events (enable via
// ServeConfig.Flight), snapshotted on SLO breach, fault-ladder degradation, or
// engine capacity exhaustion, and unconditionally at end of run; snapshots
// ride in ServeReport.Flights (or a ServeFlightError when the run aborts) and
// serialize to JSONL with FlightSnapshot.WriteJSONL. RequestView reassembles
// one cluster-wide causal timeline per request from a request-stamped trace.
type (
	AttributionComponents = obsv.AttributionComponents
	AttributionComponent  = obsv.AttributionComponent
	LatencyAttribution    = obsv.LatencyAttribution
	FlightConfig          = obsv.FlightConfig
	FlightEvent           = obsv.FlightEvent
	FlightSnapshot        = obsv.FlightSnapshot
	ServeFlightError      = serve.FlightError
	RequestView           = obsv.RequestView
)

// Re-exported online-learning types. OnlineConfig (ServeConfig.Online /
// ClusterConfig.Online, or WithOnlineLearning on a cluster) closes the
// serve→pilot feedback loop: completed requests feed a bounded replay memory
// and the pilot retrains in-loop every TrainingInterval observations on
// seeded minibatches, with optional per-tenant adapter pilots. Retrain stalls
// are charged to the host timeline and attributed to the pilot_retrain SLO
// component. OnlineStats rides in ServeStats.Online with the run's retrain
// counts and windowed mispredict-rate trajectory.
type (
	OnlineConfig     = online.Config
	OnlineStats      = obsv.OnlineStats
	OnlineWindowRate = obsv.OnlineWindowRate
)

// AssembleRequests groups request-stamped spans (Cluster.Serve traces) into
// per-request timelines with per-lane occupancy.
var AssembleRequests = obsv.AssembleRequests

// Serving defaults, re-exported from the serving layer.
const (
	DefaultServeMaxBatch   = serve.DefaultMaxBatch
	DefaultServeMaxQueue   = serve.DefaultMaxQueue
	DefaultScaleWindow     = serve.DefaultScaleWindow
	DefaultFlightEvents    = obsv.DefaultFlightEvents
	DefaultFlightSnapshots = obsv.DefaultFlightSnapshots
)

// MetricsRegistry collects live recorders for Prometheus exposition; wire it
// into ServeConfig.Registry and mount NewMetricsMux on an HTTP server.
type MetricsRegistry = obsv.Registry

var (
	NewMetricsRegistry = obsv.NewRegistry
	NewMetricsMux      = obsv.NewServeMux
)

// Serve runs the multi-tenant serving front-end over this system's offload
// engine: seeded per-tenant arrival streams draw requests from the sample
// pool, admission control enforces GPU-memory quotas with backpressure and
// load shedding, and an SLO-aware scheduler forms continuous batches that
// dispatch through the engine. Everything advances on the simulated clock, so
// identical (seed, config) inputs replay bit-identical scheduling decisions
// and latency aggregates at any worker count. It is the one-GPU case of
// Cluster.Serve, without building a cluster.
//
// The serving engine memoizes repeated requests (Config.MemoizeSamples): a
// re-submitted identical job reuses its pilot resolution while the pilot's
// weights are unchanged, skipping inference and mapping, and reuses its
// recorded truth path instead of repeating a mis-prediction. Both memos live
// for one Serve call. The system's training-epoch engine is untouched —
// serving runs on its own engine so cache state never leaks between the two
// worlds.
func (s *System) Serve(pool []*dynn.Sample, cfg ServeConfig) (*ServeReport, error) {
	rep, err := s.serve(pool, ClusterConfig{Config: cfg}, 1, false)
	if err != nil {
		return nil, err
	}
	return &rep.Report, nil
}

// serve is the one serving path under System.Serve and Cluster.Serve: it
// encodes the pool and runs cfg on gpus fresh serving engines.
func (s *System) serve(pool []*dynn.Sample, cfg ClusterConfig, gpus int, onDemand bool) (*ClusterReport, error) {
	if s.pilot == nil {
		return nil, fmt.Errorf("dynnoffload: %w (call TrainPilot)", ErrPilotNotTrained)
	}
	exs, err := s.Examples(pool)
	if err != nil {
		return nil, err
	}
	if cfg.Workers == 0 {
		cfg.Workers = s.cfg.Workers
	}
	return serve.RunCluster(&serve.ClusterBackend{Engines: s.servingEngines(gpus, onDemand), Pool: exs}, cfg)
}

// servingEngines builds n fresh engines sharing the system's pilot: each gets
// its own allocator, streams, fault injector, and mis-prediction cache, so
// runs replay bit-identically. They memoize repeated requests unless
// onDemand forces every request through the on-demand path, and because they
// resolve through the same pilots they share one resolution memo, built
// fresh for each call.
func (s *System) servingEngines(n int, onDemand bool) []*core.Engine {
	memo := core.NewResolutionMemo()
	engines := make([]*core.Engine, n)
	for i := range engines {
		ecfg := s.engineConfig()
		ecfg.ForceOnDemand = onDemand
		ecfg.MemoizeSamples = !onDemand
		ecfg.Resolutions = memo
		engines[i] = core.NewEngine(ecfg, s.pilot)
	}
	return engines
}
