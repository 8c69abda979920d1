// Package online closes the serve→pilot feedback loop: the serving layer
// observes an endless labeled stream (predicted path vs. actually resolved
// path), and this package turns it into in-loop pilot learning. The shape
// follows DROO's MemoryDNN idiom — a bounded replay ring of labeled outcomes,
// retrained every TrainingInterval arrivals on a seeded minibatch — with one
// addition motivated by DyCL's observation that hot dynamic variants recur
// per workload: optional per-tenant adapter pilots (shared base, per-tenant
// ring, fine-tuned output head) so tenants with skewed path distributions
// specialize.
//
// Everything here is deterministic by construction: sampling uses the
// repo-wide splitmix64 RNG (no global RNG), retraining runs serially between
// serving dispatches on the simulated clock, and the package sits inside
// dynnlint's determinism scope. For a fixed config and observation order the
// retrained weights — and therefore every downstream prediction — are
// bit-identical at any worker count, fault-free or faulted.
package online

import (
	"fmt"

	"dynnoffload/internal/mathx"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// Config parameterizes the online learner. The zero value means disabled;
// Enabled with everything else zero gets the documented defaults.
type Config struct {
	// Enabled turns the feedback loop on. Off, the serving layer behaves
	// byte-for-byte as if this package did not exist.
	Enabled bool
	// ObserveOnly tracks the mispredict-rate trajectory and fills the replay
	// memory but never retrains — the frozen-pilot control arm of the online
	// sweep. Predictions are identical to Enabled=false.
	ObserveOnly bool
	// MemorySize is the shared replay ring capacity (default 256). Once full,
	// the oldest entry is overwritten — DROO's counter % memory_size rule.
	MemorySize int
	// TrainingInterval retrains every N observed completions (default 16).
	TrainingInterval int
	// MinibatchSize is the number of ring entries sampled per retrain,
	// clamped to the ring's live size (default 32).
	MinibatchSize int
	// Epochs per retrain over the minibatch (default 1).
	Epochs int
	// LR is the SGD learning rate for Refine (default 0.01). Refine runs
	// at momentum refineMomentum; the shared pilot refines every layer and
	// the per-tenant adapters only the output head.
	LR float64
	// Seed drives minibatch sampling and shuffle seeds (default 1).
	Seed uint64
	// PerTenant enables per-tenant adapter pilots: each tenant keeps its own
	// replay ring and, once AdapterMinExamples outcomes have accumulated,
	// a clone of the shared pilot whose head fine-tunes on that ring alone.
	// Cold tenants fall back to the shared pilot.
	PerTenant bool
	// TenantMemorySize is each tenant ring's capacity (default 64).
	TenantMemorySize int
	// AdapterMinExamples is the warm-up threshold before a tenant gets its
	// own adapter (default 32).
	AdapterMinExamples int
	// RetrainCostNS is the simulated host-timeline cost of one SGD step
	// (one example × one epoch) during a retrain stall (default 20000).
	RetrainCostNS int64
	// WindowSize is the mispredict-trajectory window: every WindowSize
	// observations close one OnlineWindowRate point (default 40).
	WindowSize int
}

// refineMomentum is the SGD momentum of every online Refine.
const refineMomentum = 0.9

// withDefaults fills unset knobs with the documented defaults.
func (c Config) withDefaults() Config {
	if c.MemorySize <= 0 {
		c.MemorySize = 256
	}
	if c.TrainingInterval <= 0 {
		c.TrainingInterval = 16
	}
	if c.MinibatchSize <= 0 {
		c.MinibatchSize = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TenantMemorySize <= 0 {
		c.TenantMemorySize = 64
	}
	if c.AdapterMinExamples <= 0 {
		c.AdapterMinExamples = 32
	}
	if c.RetrainCostNS <= 0 {
		c.RetrainCostNS = 20_000
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 40
	}
	return c
}

// Memory is a bounded replay ring of labeled serving outcomes. Entries are
// (features, truth-path label) pairs — pilot.Example carries both — stored at
// seen % capacity so a full ring always holds the most recent capacity
// observations.
type Memory struct {
	capacity int
	ents     []*pilot.Example
	seen     int64
}

// NewMemory builds an empty ring with the given capacity (min 1).
func NewMemory(capacity int) *Memory {
	if capacity < 1 {
		capacity = 1
	}
	return &Memory{capacity: capacity}
}

// Add records one outcome, overwriting the oldest once the ring is full.
func (m *Memory) Add(ex *pilot.Example) {
	if len(m.ents) < m.capacity {
		m.ents = append(m.ents, ex)
	} else {
		m.ents[m.seen%int64(m.capacity)] = ex
	}
	m.seen++
}

// Len is the number of live entries; Cap the fixed capacity.
func (m *Memory) Len() int { return len(m.ents) }
func (m *Memory) Cap() int { return m.capacity }

// Sample draws min(n, Len) entries without replacement using rng — a seeded
// permutation prefix, so a fixed rng state yields a fixed minibatch.
func (m *Memory) Sample(rng *mathx.RNG, n int) []*pilot.Example {
	if n > len(m.ents) {
		n = len(m.ents)
	}
	if n <= 0 {
		return nil
	}
	perm := rng.Perm(len(m.ents))
	out := make([]*pilot.Example, n)
	for i := 0; i < n; i++ {
		out[i] = m.ents[perm[i]]
	}
	return out
}

// tenantState is one tenant's slice of the learner: its own ring, its own
// RNG stream, and — once warm — its adapter pilot.
type tenantState struct {
	mem       *Memory
	rng       *mathx.RNG
	adapter   *pilot.Pilot
	sinceWarm int
}

// Learner owns the feedback loop for one serving run. The serving loops call
// Observe serially, in completion-processing order, between dispatches — so
// no locking is needed and the retrain schedule is a pure function of the
// observation sequence.
type Learner struct {
	cfg  Config
	base *pilot.Pilot // offline-trained pilot, never mutated
	// shared is the online-refined clone; nil until the first retrain, so
	// before any learning PilotFor falls back to the engine's own pilot.
	shared  *pilot.Pilot
	mem     *Memory
	rng     *mathx.RNG
	tenants []*tenantState

	observed    int64
	mispredicts int64
	retrains    int64
	retrainNS   int64
	windowMis   int
	windowN     int
	windows     []obsv.OnlineWindowRate
}

// New builds a learner over a trained base pilot for numTenants tenants.
func New(cfg Config, base *pilot.Pilot, numTenants int) (*Learner, error) {
	cfg = cfg.withDefaults()
	if base == nil || !base.Trained() {
		return nil, fmt.Errorf("online: %w", pilot.ErrNotTrained)
	}
	l := &Learner{
		cfg:  cfg,
		base: base,
		mem:  NewMemory(cfg.MemorySize),
		rng:  mathx.NewRNG(cfg.Seed).Fork(0x0e11),
	}
	if numTenants < 0 {
		numTenants = 0
	}
	for t := 0; t < numTenants; t++ {
		l.tenants = append(l.tenants, &tenantState{
			mem: NewMemory(cfg.TenantMemorySize),
			rng: mathx.NewRNG(cfg.Seed).Fork(0x7e40 + uint64(t)),
		})
	}
	return l, nil
}

// PilotFor returns the pilot that should resolve tenant's next request: the
// tenant's adapter once warm, else the shared refined pilot once the first
// retrain has run, else nil — meaning "use the engine's own pilot", which is
// exactly the base. ObserveOnly always returns nil so the control arm
// predicts identically to a run with learning off.
func (l *Learner) PilotFor(tenant int) *pilot.Pilot {
	if l == nil || !l.cfg.Enabled || l.cfg.ObserveOnly {
		return nil
	}
	if l.cfg.PerTenant && tenant >= 0 && tenant < len(l.tenants) {
		if a := l.tenants[tenant].adapter; a != nil {
			return a
		}
	}
	return l.shared
}

// Observe feeds one completed request's outcome — its example (features +
// truth-path label) and whether the pilot mispredicted it — into the replay
// memory, and fires any retrain the observation count now triggers. It
// returns the simulated host-timeline stall the retrains cost (0 almost
// always). Must be called serially in the run's deterministic completion
// order.
func (l *Learner) Observe(tenant int, ex *pilot.Example, mispredicted bool) (int64, error) {
	if l == nil || !l.cfg.Enabled || ex == nil {
		return 0, nil
	}
	l.observed++
	l.windowN++
	if mispredicted {
		l.mispredicts++
		l.windowMis++
	}
	if l.windowN == l.cfg.WindowSize {
		l.windows = append(l.windows, obsv.OnlineWindowRate{
			EndSeq:      l.observed,
			Mispredicts: l.windowMis,
			Window:      l.cfg.WindowSize,
			Rate:        float64(l.windowMis) / float64(l.cfg.WindowSize),
		})
		l.windowMis, l.windowN = 0, 0
	}
	l.mem.Add(ex)
	var ts *tenantState
	if l.cfg.PerTenant && tenant >= 0 && tenant < len(l.tenants) {
		ts = l.tenants[tenant]
		ts.mem.Add(ex)
	}
	if l.cfg.ObserveOnly {
		return 0, nil
	}

	var stallNS int64
	if l.observed%int64(l.cfg.TrainingInterval) == 0 {
		if l.shared == nil {
			l.shared = l.base.Clone()
		}
		cost, err := l.retrain(l.shared, l.mem, l.rng, false)
		if err != nil {
			return stallNS, err
		}
		stallNS += cost
	}
	if ts != nil {
		if ts.adapter == nil && ts.mem.Len() >= l.cfg.AdapterMinExamples {
			// Warm the adapter from the current shared pilot (or the base if
			// no shared retrain has fired yet) so it inherits all learning so
			// far; from here on only its head moves, on this tenant's ring.
			src := l.shared
			if src == nil {
				src = l.base
			}
			ts.adapter = src.Clone()
			ts.sinceWarm = 0
		}
		if ts.adapter != nil {
			ts.sinceWarm++
			if ts.sinceWarm%l.cfg.TrainingInterval == 0 {
				cost, err := l.retrain(ts.adapter, ts.mem, ts.rng, true)
				if err != nil {
					return stallNS, err
				}
				stallNS += cost
			}
		}
	}
	return stallNS, nil
}

// retrain runs one seeded-minibatch Refine on p and returns its simulated
// cost: RetrainCostNS per example per epoch.
func (l *Learner) retrain(p *pilot.Pilot, mem *Memory, rng *mathx.RNG, headOnly bool) (int64, error) {
	batch := mem.Sample(rng, l.cfg.MinibatchSize)
	if len(batch) == 0 {
		return 0, nil
	}
	_, err := p.Refine(batch, pilot.RefineConfig{
		LR: l.cfg.LR, Momentum: refineMomentum, Epochs: l.cfg.Epochs,
		Seed: rng.Uint64(), HeadOnly: headOnly,
	})
	if err != nil {
		return 0, err
	}
	l.retrains++
	cost := l.cfg.RetrainCostNS * int64(len(batch)) * int64(l.cfg.Epochs)
	l.retrainNS += cost
	return cost, nil
}

// Stats snapshots the run's online-learning summary (nil receiver → nil, so
// a disabled run's report carries no online section).
func (l *Learner) Stats() *obsv.OnlineStats {
	if l == nil || !l.cfg.Enabled {
		return nil
	}
	s := &obsv.OnlineStats{
		Observed:    l.observed,
		Mispredicts: l.mispredicts,
		Retrains:    l.retrains,
		RetrainNS:   l.retrainNS,
		MemorySize:  l.mem.Len(),
		MemoryCap:   l.mem.Cap(),
		WindowRates: append([]obsv.OnlineWindowRate(nil), l.windows...),
	}
	for _, ts := range l.tenants {
		if ts.adapter != nil {
			s.AdapterTenants++
		}
	}
	return s
}
