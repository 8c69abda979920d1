// Package dynnoffload is the public API of the DyNN-Offload reproduction: a
// learning-based GPU memory-management system for training dynamic neural
// networks larger than GPU memory (HPCA 2024). It re-exports the pieces a
// downstream user composes:
//
//   - a model zoo of dynamic NNs (Tree-CNN, Tree-LSTM, var-BERT, var-LSTM,
//     MoE, UGAN, an AlphaFold-style evoformer) and synthetic sample streams;
//   - the pilot model: a small neural network that resolves a DyNN's
//     control flow per input sample and predicts its execution-block
//     partition;
//   - the DyNN-Offload runtime: double-buffered tensor prefetch over a
//     virtual-time GPU/PCIe simulator, with mis-prediction handling;
//   - the baselines the paper compares against: unmodified PyTorch-style
//     in-memory training, CUDA unified virtual memory (UVM), dynamic tensor
//     rematerialization (DTR), and ZeRO-Offload — all behind the Runner
//     interface.
//
// Quick start (see examples/quickstart for a runnable version):
//
//	model := dynnoffload.NewTreeLSTM(dynnoffload.TreeLSTMConfig{
//		Levels: 6, Hidden: 256, SeqLen: 16, Batch: 8, Seed: 1,
//	})
//	sys, err := dynnoffload.NewSystem(model,
//		dynnoffload.WithPlatform(dynnoffload.RTXPlatform().WithMemory(dynnoffload.GiB(1))),
//	)
//	...
//	report, err := sys.TrainEpoch(samples)
package dynnoffload

import (
	"errors"
	"fmt"
	"sync"

	"dynnoffload/internal/core"
	"dynnoffload/internal/dynn"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
	"dynnoffload/internal/sentinel"
	"dynnoffload/internal/trace"
)

// Typed sentinel errors. Callers match with errors.Is; the wrapped messages
// keep the human-readable detail.
var (
	// ErrPilotNotTrained: TrainEpoch/PilotAccuracy/the dynn-offload runner
	// need a trained pilot (call TrainPilot).
	ErrPilotNotTrained = core.ErrPilotNotTrained
	// ErrUnknownPath: a sample resolved to a path absent from the model
	// context.
	ErrUnknownPath = core.ErrUnknownPath
	// ErrCapacityExceeded: the path cannot run under the platform's memory.
	ErrCapacityExceeded = core.ErrCapacityExceeded
	// ErrUnknownRunner: the policy name is not a built-in runner.
	ErrUnknownRunner = errors.New("dynnoffload: unknown runner")
	// ErrModelRequired: NewSystem needs a non-nil model.
	ErrModelRequired = errors.New("dynnoffload: model is required")
)

// Re-exported model zoo types and constructors.
type (
	Model           = dynn.Model
	Sample          = dynn.Sample
	TreeCNNConfig   = dynn.TreeCNNConfig
	TreeLSTMConfig  = dynn.TreeLSTMConfig
	VarBERTConfig   = dynn.VarBERTConfig
	VarLSTMConfig   = dynn.VarLSTMConfig
	MoEConfig       = dynn.MoEConfig
	UGANConfig      = dynn.UGANConfig
	AlphaFoldConfig = dynn.AlphaFoldConfig
	ZooEntry        = dynn.ZooEntry
)

var (
	NewTreeCNN   = dynn.NewTreeCNN
	NewTreeLSTM  = dynn.NewTreeLSTM
	NewVarBERT   = dynn.NewVarBERT
	NewFixedBERT = dynn.NewFixedBERT
	NewVarLSTM   = dynn.NewVarLSTM
	NewFixedLSTM = dynn.NewFixedLSTM
	NewMoE       = dynn.NewMoE
	NewUGAN      = dynn.NewUGAN
	NewAlphaFold = dynn.NewAlphaFold

	Zoo             = dynn.Zoo
	ZooModel        = dynn.ZooModel
	GenerateSamples = dynn.GenerateSamples
	ParamCount      = dynn.ParamCount
	StateBytes      = dynn.StateBytes
)

// Re-exported hardware platform types and presets.
type (
	Platform   = gpusim.Platform
	DeviceSpec = gpusim.DeviceSpec
	Breakdown  = gpusim.Breakdown
)

var (
	RTXPlatform  = gpusim.RTXPlatform
	A100Platform = gpusim.A100Platform
	GiB          = gpusim.GiB
	MiB          = gpusim.MiB
)

// Re-exported pilot-model types. PilotEvalReport carries accuracy plus the
// per-path confusion summary (which truth paths the pilot mistakes for
// which), used by the online-sweep reporting and dynnserve tables.
type (
	PilotConfig       = pilot.Config
	Pilot             = pilot.Pilot
	PilotExample      = pilot.Example
	TrainResult       = pilot.TrainResult
	PilotEvalReport   = pilot.EvalReport
	PilotConfusedPair = pilot.ConfusedPair
)

var (
	NewPilot           = pilot.New
	DefaultPilotConfig = pilot.DefaultConfig
)

// SystemConfig is the resolved configuration a System runs under; NewSystem
// assembles it from functional options.
type SystemConfig struct {
	Model    dynn.Model
	Platform gpusim.Platform
	// PilotConfig configures the pilot trained by TrainPilot, which must be
	// called before TrainEpoch.
	PilotConfig pilot.Config
	// Workers sizes TrainEpoch's worker pool; <= 0 uses GOMAXPROCS. Epoch
	// aggregates are identical at any setting.
	Workers int
	// Faults configures deterministic fault injection into the simulated
	// device (zero Rate disables it). The engine recovers via bounded
	// retries and the degradation ladder; epoch aggregates stay identical
	// to the fault-free run, only timing and traffic change.
	Faults FaultConfig
	// PressureFraction, when positive, caps the platform's GPU memory at
	// this fraction of the model's largest-path footprint (floored at the
	// double-buffer minimum), reproducing the paper's "model larger than
	// GPU memory" regime at any model scale.
	PressureFraction float64
}

// FaultConfig seeds the deterministic fault injector: Seed selects the fault
// schedule, Rate is the per-operation fault probability in [0,1], and
// StallFactor multiplies a stalled transfer's latency. Parse the CLI form
// "seed=N,rate=R[,stall=F]" with ParseFaultSpec.
type FaultConfig = faults.Config

// ParseFaultSpec parses "seed=N,rate=R[,stall=F]" into a FaultConfig (the
// format of dynnbench's -faults flag).
var ParseFaultSpec = faults.ParseSpec

// Option mutates a SystemConfig during NewSystem.
type Option func(*SystemConfig)

// WithPlatform selects the hardware platform (default: RTXPlatform).
func WithPlatform(p Platform) Option { return func(c *SystemConfig) { c.Platform = p } }

// WithPilotConfig configures the pilot trained by TrainPilot.
func WithPilotConfig(pc PilotConfig) Option { return func(c *SystemConfig) { c.PilotConfig = pc } }

// WithWorkers sizes TrainEpoch's worker pool; n <= 0 uses GOMAXPROCS.
func WithWorkers(n int) Option { return func(c *SystemConfig) { c.Workers = n } }

// WithFaultInjection enables deterministic fault injection at the given seed
// and rate. Same config, same model, same samples → same fault schedule and
// identical RunStats fault/retry counters, at any worker count.
func WithFaultInjection(fc FaultConfig) Option { return func(c *SystemConfig) { c.Faults = fc } }

// WithMemoryPressure caps the simulated GPU at a fraction of the model's
// largest-path memory footprint (never below what double-buffering the
// largest single operator needs), so offload traffic appears at any model
// scale. Composes with WithPlatform: the pressure applies to the chosen
// platform's GPU.
func WithMemoryPressure(fraction float64) Option {
	return func(c *SystemConfig) { c.PressureFraction = fraction }
}

// System couples a model context, a pilot model, and the DyNN-Offload
// runtime — the paper's Fig 2 architecture.
type System struct {
	cfg    SystemConfig
	ctx    *pilot.ModelContext
	pilot  *pilot.Pilot
	engine *core.Engine
	// plans is shared by every engine the system builds — the training
	// engine, each Serve call's engine, and every per-GPU cluster engine —
	// so resolved plans compile once per (path, capacity) system-wide.
	plans *core.PlanCache

	runnerMu sync.Mutex
	runners  map[string]Runner
}

// NewSystem builds the system for a model: it enumerates the model's
// resolution paths, runs the Sentinel partitioner at the platform's
// double-buffer budget for every path (the offline labeling of §IV-D), and
// prepares the runtime. Unset options default to the RTX platform and the
// zero-valued pilot config.
func NewSystem(model Model, opts ...Option) (*System, error) {
	cfg := SystemConfig{Model: model}
	for _, o := range opts {
		o(&cfg)
	}
	return newSystem(cfg)
}

func newSystem(cfg SystemConfig) (*System, error) {
	if cfg.Model == nil {
		return nil, ErrModelRequired
	}
	if cfg.Platform.GPU.MemBytes == 0 {
		cfg.Platform = RTXPlatform()
	}
	if cfg.PressureFraction > 0 {
		plat, err := pilot.PressurePlatform(cfg.Model, cfg.Platform, cfg.PressureFraction)
		if err != nil {
			return nil, err
		}
		cfg.Platform = plat
	}
	cm := gpusim.NewCostModel(cfg.Platform)
	ctx, err := pilot.NewModelContext(cfg.Model, cm, cfg.Platform.GPU.MemBytes/2, cfg.PilotConfig.MaxBlocks)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, ctx: ctx, plans: core.NewPlanCache()}, nil
}

// Platform reports the resolved hardware platform the system simulates
// (after defaults and WithMemoryPressure).
func (s *System) Platform() Platform { return s.cfg.Platform }

// engineConfig derives the runtime config from the system config (platform
// defaults plus the fault injector when one is enabled).
func (s *System) engineConfig() core.Config {
	ecfg := core.DefaultConfig(s.cfg.Platform)
	ecfg.Plans = s.plans
	if s.cfg.Faults.Rate > 0 {
		ecfg.Faults = faults.New(s.cfg.Faults)
	}
	return ecfg
}

// Context exposes the model context (paths, labels, analyses).
func (s *System) Context() *pilot.ModelContext { return s.ctx }

// Examples encodes samples into pilot examples for this system's model.
func (s *System) Examples(samples []*dynn.Sample) ([]*pilot.Example, error) {
	return pilot.BuildExamples(s.ctx, s.cfg.PilotConfig.Features, samples)
}

// TrainPilot trains the pilot model offline on the given samples (§IV-D)
// and returns its held-out-free training summary.
func (s *System) TrainPilot(samples []*dynn.Sample) (pilot.TrainResult, error) {
	exs, err := s.Examples(samples)
	if err != nil {
		return pilot.TrainResult{}, err
	}
	s.pilot = pilot.New(s.cfg.PilotConfig)
	res := s.pilot.Train(exs)
	s.engine = core.NewEngine(s.engineConfig(), s.pilot)
	return res, nil
}

// PilotAccuracy evaluates the pilot on samples, returning accuracy and the
// mis-prediction count.
func (s *System) PilotAccuracy(samples []*dynn.Sample) (float64, int, error) {
	if s.pilot == nil {
		return 0, 0, fmt.Errorf("dynnoffload: %w", ErrPilotNotTrained)
	}
	exs, err := s.Examples(samples)
	if err != nil {
		return 0, 0, err
	}
	ev, err := s.pilot.Evaluate(exs)
	if err != nil {
		return 0, 0, fmt.Errorf("dynnoffload: %w", err)
	}
	return ev.Accuracy, ev.Mispredictions, nil
}

// PilotEval evaluates the pilot on samples and returns the full report:
// accuracy, mis-prediction count, mean inference latency, and the per-path
// confusion summary (which truth paths get mistaken for which, most frequent
// first — see PilotEvalReport.TopConfusions).
func (s *System) PilotEval(samples []*dynn.Sample) (PilotEvalReport, error) {
	if s.pilot == nil {
		return PilotEvalReport{}, fmt.Errorf("dynnoffload: %w", ErrPilotNotTrained)
	}
	exs, err := s.Examples(samples)
	if err != nil {
		return PilotEvalReport{}, err
	}
	ev, err := s.pilot.Evaluate(exs)
	if err != nil {
		return PilotEvalReport{}, fmt.Errorf("dynnoffload: %w", err)
	}
	return ev, nil
}

// EpochReport is the result of a simulated training epoch.
type EpochReport = core.EpochReport

// RunStats is the observability snapshot of one run (throughput, rates,
// per-phase latency histograms).
type RunStats = obsv.RunStats

// TrainEpoch simulates DyNN-Offload training over the samples (one
// iteration each) and aggregates time, traffic, and mis-predictions. With
// WithWorkers(n) the epoch fans out across n workers; aggregates are
// identical at any worker count. On error the report is zero.
func (s *System) TrainEpoch(samples []*dynn.Sample) (EpochReport, error) {
	return s.TrainEpochStats(samples, nil)
}

// TrainEpochStats is TrainEpoch with an optional observability recorder
// (see internal/obsv via the RunStats alias); pass nil to skip recording.
func (s *System) TrainEpochStats(samples []*dynn.Sample, rec *obsv.Recorder) (EpochReport, error) {
	if s.engine == nil {
		return EpochReport{}, fmt.Errorf("dynnoffload: %w (call TrainPilot)", ErrPilotNotTrained)
	}
	exs, err := s.Examples(samples)
	if err != nil {
		return EpochReport{}, err
	}
	return s.engine.ParallelRunEpoch(exs, core.EpochOptions{Workers: s.cfg.Workers, Recorder: rec})
}

// NewRecorder builds an observability recorder for one run; sink may be nil
// (counters only) or a JSONL sink from NewJSONLSink.
var (
	NewRecorder  = obsv.NewRecorder
	NewJSONLSink = obsv.NewJSONLSink
)

// CacheStats reports the runtime's mis-prediction cache counters; the zero
// value is returned before the pilot is trained.
func (s *System) CacheStats() core.CacheStats {
	if s.engine == nil {
		return core.CacheStats{}
	}
	return s.engine.CacheStats()
}

// Names of the built-in memory-management policies. Resolve one with
// System.Runner; comparison loops range over RunnerNames().
const (
	PyTorch     = "pytorch"
	UVM         = "uvm"
	DTR         = "dtr"
	ZeROOffload = "zero-offload"
	// DyNNOffload is the paper's system itself, a runner alongside the
	// baselines so comparison loops can range over every runner uniformly.
	DyNNOffload = "dynn-offload"
)

// Trace produces the dynamic execution trace of a sample's full training
// iteration (forward + backward + optimizer), as cmd/tracegen writes to
// JSON.
func (s *System) Trace(sample *dynn.Sample) (*trace.Trace, error) {
	r, err := s.cfg.Model.Resolve(sample)
	if err != nil {
		return nil, err
	}
	info := s.ctx.PathByKey(pilot.PathKey(r))
	if info == nil {
		return nil, fmt.Errorf("dynnoffload: %w", ErrUnknownPath)
	}
	return info.Trace, nil
}

// Blocks returns the Sentinel execution-block partition for a sample's path.
func (s *System) Blocks(sample *dynn.Sample) ([]sentinel.Block, error) {
	r, err := s.cfg.Model.Resolve(sample)
	if err != nil {
		return nil, err
	}
	info := s.ctx.PathByKey(pilot.PathKey(r))
	if info == nil {
		return nil, fmt.Errorf("dynnoffload: %w", ErrUnknownPath)
	}
	return info.Blocks, nil
}
