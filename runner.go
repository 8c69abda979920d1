package dynnoffload

import (
	"fmt"

	"dynnoffload/internal/baselines"
	"dynnoffload/internal/core"
	"dynnoffload/internal/pilot"
)

// Runner executes one simulated training iteration per sample under one
// memory-management policy. The DyNN-Offload engine and every baseline
// implement it, so comparison code iterates runners instead of switching on
// name strings. Implementations obtained from System.Runner are safe for
// concurrent RunIteration calls.
type Runner interface {
	// Name is the policy name ("dynn-offload", "pytorch", "uvm", "dtr",
	// "zero-offload").
	Name() string
	// RunIteration simulates one training iteration of the example's
	// ground-truth resolution path and returns its time/traffic breakdown.
	RunIteration(ex *PilotExample) (Breakdown, error)
}

// RunnerNames lists the built-in policy names, sorted.
func RunnerNames() []string {
	return []string{DTR, DyNNOffload, PyTorch, UVM, ZeROOffload}
}

// Runner resolves a built-in policy for this system. Results are memoized
// per system, so repeated lookups share one runner (and its state, e.g. the
// DyNN-Offload mis-prediction cache).
func (s *System) Runner(name string) (Runner, error) {
	s.runnerMu.Lock()
	defer s.runnerMu.Unlock()
	if r, ok := s.runners[name]; ok {
		return r, nil
	}
	var r Runner
	switch name {
	case DyNNOffload:
		r = &offloadRunner{s: s}
	case PyTorch:
		r = &pathRunner{name: name, run: func(info *pilot.PathInfo) (Breakdown, error) {
			return baselines.PyTorch(info.Analysis, s.cfg.Platform)
		}}
	case UVM:
		r = &pathRunner{name: name, run: func(info *pilot.PathInfo) (Breakdown, error) {
			return baselines.UVM(info.Analysis, s.cfg.Platform, baselines.DefaultUVMConfig())
		}}
	case DTR:
		r = &pathRunner{name: name, run: func(info *pilot.PathInfo) (Breakdown, error) {
			return baselines.DTR(info.Analysis, s.cfg.Platform, baselines.DefaultDTRConfig())
		}}
	case ZeROOffload:
		eng := core.NewEngine(core.DefaultConfig(s.cfg.Platform), nil)
		r = &pathRunner{name: name, run: func(info *pilot.PathInfo) (Breakdown, error) {
			return baselines.ZeRO(info.Analysis, s.cfg.Platform, s.cfg.Model.Dynamic(),
				baselines.DefaultZeROConfig(), eng.SimulatePartition)
		}}
	default:
		return nil, fmt.Errorf("dynnoffload: runner %q: %w", name, ErrUnknownRunner)
	}
	if s.runners == nil {
		s.runners = map[string]Runner{}
	}
	s.runners[name] = r
	return r, nil
}

// pathRunner adapts a per-path baseline simulation to the Runner interface:
// it looks the example's ground-truth path up in the model context and hands
// the path analysis to the policy.
type pathRunner struct {
	name string
	run  func(info *pilot.PathInfo) (Breakdown, error)
}

func (r *pathRunner) Name() string { return r.name }

func (r *pathRunner) RunIteration(ex *PilotExample) (Breakdown, error) {
	info := ex.Ctx.PathByKey(ex.TruthKey)
	if info == nil {
		return Breakdown{}, fmt.Errorf("dynnoffload: path %q: %w", ex.TruthKey, ErrUnknownPath)
	}
	return r.run(info)
}

// offloadRunner is the DyNN-Offload engine behind the Runner interface.
type offloadRunner struct{ s *System }

func (r *offloadRunner) Name() string { return DyNNOffload }

func (r *offloadRunner) RunIteration(ex *PilotExample) (Breakdown, error) {
	if r.s.engine == nil {
		return Breakdown{}, fmt.Errorf("dynnoffload: %w (call TrainPilot)", ErrPilotNotTrained)
	}
	res, err := r.s.engine.RunSample(ex)
	return res.Breakdown, err
}
