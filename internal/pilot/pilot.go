package pilot

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/mathx"
	"dynnoffload/internal/nn"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/sentinel"
)

// ErrNotTrained is returned when Predict/Resolve/Evaluate run before Train:
// an untrained pilot has no feature scalers, so inference is meaningless.
// Callers match it with errors.Is; core wraps it as ErrPilotNotTrained.
var ErrNotTrained = errors.New("pilot: not trained")

// Config controls pilot-model construction and training (§IV-C: three
// parallel MLPs of four layers each — input, two hidden, output — selected by
// the DyNN's base type; LeakyReLU activations, SGD, learning rate 0.01).
type Config struct {
	Neurons   int     // hidden width per MLP layer (Table IV sweeps this)
	LR        float64 // SGD learning rate
	LRDecay   float64 // multiplicative per-epoch decay (default 0.95)
	Momentum  float64 // SGD momentum (default 0.9)
	Epochs    int
	Seed      uint64
	MaxBlocks int
	Features  FeatureConfig
}

// DefaultConfig returns the paper's pilot configuration (512 neurons per MLP
// layer, §VI-E).
func DefaultConfig() Config {
	return Config{Neurons: 512, Epochs: 15, Seed: 11, MaxBlocks: DefaultMaxBlocks}
}

func (c *Config) defaults() {
	if c.Neurons == 0 {
		c.Neurons = 512
	}
	if c.LR == 0 {
		// Scale the step size down with width so every Table IV
		// configuration trains stably under SGD+momentum.
		c.LR = 0.001 * math.Sqrt(128/float64(c.Neurons))
	}
	if c.LRDecay == 0 {
		c.LRDecay = 0.95
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.Epochs == 0 {
		c.Epochs = 15
	}
	if c.MaxBlocks == 0 {
		c.MaxBlocks = DefaultMaxBlocks
	}
	c.Features.defaults()
}

// Pilot is the pilot model: a feature scaler, three parallel MLPs (one per
// base NN type, only one activated per inference — the design that keeps
// inference fast, §IV-C), and a label scaler.
type Pilot struct {
	Cfg  Config
	mlps [dynn.NumBaseTypes]*nn.MLP
	// shared marks the MLPs this pilot may share with a clone of it or with
	// the pilot it was cloned from: Clone shares every MLP, and Train and
	// Refine copy a shared MLP (own) before they change it. An online
	// learner's clones train one MLP each, so they copy only that one. The
	// flags are atomic because Clone sets its source's, and two goroutines
	// may clone one pilot at once.
	shared [dynn.NumBaseTypes]atomic.Bool
	// borrowed marks the shared MLPs this pilot got from Clone. A shared
	// MLP's momentum velocities are those of the one pilot that did not
	// borrow it; a clone starts without any, as a new MLP does.
	borrowed [dynn.NumBaseTypes]bool

	featMean, featStd   []float64
	labelMean, labelStd []float64

	// normLabels caches each model context's path labels projected into the
	// pilot's normalized label space, where output→path matching happens:
	// standardization amplifies exactly the dimensions that discriminate
	// paths, making the match robust to regression noise on the large
	// non-discriminative descriptor elements. Each context's labels sit in
	// one lane-interleaved slice, the layout nearestPath scans (see
	// pathLabelsNorm). A slice is never written once inserted, so Clone
	// shares them. Guarded by normMu so Resolve is safe to call from many
	// goroutines at once.
	normMu     sync.RWMutex
	normLabels map[*ModelContext][]float64

	// scratch pools inference buffers (*[]float64: normalized features,
	// then the MLP's activations), one per in-flight Predict or Resolve, so
	// a warm call allocates only the output it returns. A pilot and its
	// clones share one pool: their MLPs have one shape, so a clone's first
	// Resolve reuses its parent's buffers (inferNorm replaces a buffer too
	// short for the MLP, should a Train change the shape). It is a separate
	// object because the runtime keeps a used pool reachable until two GCs
	// later: embedded, it would keep a discarded pilot's weights alive that
	// long too.
	scratch *sync.Pool

	// version counts the weight updates (Train and Refine calls) this
	// instance has seen. Together with the instance's identity it names one
	// fixed set of weights, which is what a cached Resolution is valid for.
	version uint64
}

// New constructs an untrained pilot model.
func New(cfg Config) *Pilot {
	cfg.defaults()
	p := &Pilot{Cfg: cfg, scratch: new(sync.Pool)}
	rng := mathx.NewRNG(cfg.Seed)
	in := cfg.Features.Width()
	out := cfg.MaxBlocks * sentinel.DescriptorLen
	for i := range p.mlps {
		p.mlps[i] = nn.NewMLP([]int{in, cfg.Neurons, cfg.Neurons, out}, nn.LeakyReLU, rng.Fork(uint64(i)))
	}
	return p
}

// Params returns the total trainable parameter count across the three MLPs.
func (p *Pilot) Params() int {
	n := 0
	for _, m := range p.mlps {
		n += m.Params()
	}
	return n
}

// fitScalers computes per-dimension standardization from the training set.
func (p *Pilot) fitScalers(examples []*Example) {
	if len(examples) == 0 {
		return
	}
	fw, lw := len(examples[0].Features), len(examples[0].Label)
	p.featMean, p.featStd = fitScaler(examples, fw, func(e *Example) []float64 { return e.Features })
	p.labelMean, p.labelStd = fitScaler(examples, lw, func(e *Example) []float64 { return e.Label })
}

func fitScaler(examples []*Example, width int, get func(*Example) []float64) (mean, std []float64) {
	mean = make([]float64, width)
	std = make([]float64, width)
	n := float64(len(examples))
	for _, e := range examples {
		for i, v := range get(e) {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= n
	}
	for _, e := range examples {
		for i, v := range get(e) {
			d := v - mean[i]
			std[i] += d * d
		}
	}
	for i := range std {
		std[i] = std[i] / n
		if std[i] < 1e-12 {
			std[i] = 1
		} else {
			std[i] = math.Sqrt(std[i])
		}
	}
	return mean, std
}

func normalize(x, mean, std []float64, out []float64) {
	for i := range x {
		out[i] = (x[i] - mean[i]) / std[i]
	}
}

func denormalize(x, mean, std []float64, out []float64) {
	for i := range x {
		out[i] = x[i]*std[i] + mean[i]
	}
}

// TrainResult summarizes a training run.
type TrainResult struct {
	Epochs      int
	FinalLoss   float64
	TrainedOn   int
	WallClock   time.Duration
	PerBaseType [dynn.NumBaseTypes]int
}

// Train fits the pilot on examples with per-sample SGD (the pilot trains
// offline, §IV-D). Examples route to the MLP of their base type.
func (p *Pilot) Train(examples []*Example) TrainResult {
	sw := obsv.StartTimer()
	p.version++
	for i := range p.mlps {
		p.own(i)
	}
	p.fitScalers(examples)
	p.normMu.Lock()
	p.normLabels = map[*ModelContext][]float64{}
	p.normMu.Unlock()
	rng := mathx.NewRNG(p.Cfg.Seed ^ 0x7e41)

	var res TrainResult
	res.TrainedOn = len(examples)
	for _, e := range examples {
		res.PerBaseType[int(e.Base)]++
	}

	fbuf := make([]float64, len(p.featMean))
	lbuf := make([]float64, len(p.labelMean))
	var lastLoss float64
	lr := p.Cfg.LR
	for epoch := 0; epoch < p.Cfg.Epochs; epoch++ {
		perm := rng.Perm(len(examples))
		var lossSum float64
		for _, idx := range perm {
			e := examples[idx]
			normalize(e.Features, p.featMean, p.featStd, fbuf)
			normalize(e.Label, p.labelMean, p.labelStd, lbuf)
			lossSum += p.mlps[int(e.Base)].TrainStep(fbuf, lbuf, lr, p.Cfg.Momentum)
		}
		lastLoss = lossSum / float64(len(examples))
		lr *= p.Cfg.LRDecay
	}
	res.Epochs = p.Cfg.Epochs
	res.FinalLoss = lastLoss
	res.WallClock = sw.Elapsed()
	return res
}

// Trained reports whether Train has fit the pilot's scalers and MLPs.
func (p *Pilot) Trained() bool { return p.featMean != nil }

// Version returns the pilot's weight version: it advances on every Train and
// Refine, so a Resolution computed at one version is stale at any later one.
// Clone and Load return a new instance, which is a new identity; the
// (instance, version) pair therefore names the weights that resolved a
// request. Like Resolve, it must not run concurrently with Train or Refine.
func (p *Pilot) Version() uint64 { return p.version }

// Clone returns a copy of the pilot: scaler copies, a copy of the
// normalized-label cache's map (sharing its slices), the parent's inference
// scratch pool, and the MLPs, which the two pilots share copy-on-write, so
// training either one leaves the other unchanged. A clone starts without momentum, as a loaded pilot does.
// The online learner refines a clone so the serving feedback loop never
// mutates the offline-trained pilot the training engines share.
func (p *Pilot) Clone() *Pilot {
	c := &Pilot{Cfg: p.Cfg, scratch: p.scratch}
	for i, m := range p.mlps {
		p.shared[i].Store(true)
		c.shared[i].Store(true)
		c.borrowed[i] = true
		c.mlps[i] = m
	}
	c.featMean = append([]float64(nil), p.featMean...)
	c.featStd = append([]float64(nil), p.featStd...)
	c.labelMean = append([]float64(nil), p.labelMean...)
	c.labelStd = append([]float64(nil), p.labelStd...)
	if p.Trained() {
		// The cached slices are never written, and they stay valid for the
		// clone: its label scalers are bit-for-bit copies, Refine never
		// refits them, and Train replaces the map.
		p.normMu.RLock()
		c.normLabels = maps.Clone(p.normLabels)
		p.normMu.RUnlock()
	}
	return c
}

// own gives the pilot its own copy of MLP i if it may share that MLP with
// another pilot, and returns the MLP, which the caller may then train. The
// copy takes the shared MLP's momentum velocities unless the pilot borrowed
// it.
func (p *Pilot) own(i int) *nn.MLP {
	if p.shared[i].Load() {
		m := p.mlps[i].Clone()
		if !p.borrowed[i] {
			m.TakeMomentum(p.mlps[i])
		}
		p.mlps[i], p.borrowed[i] = m, false
		p.shared[i].Store(false)
	}
	return p.mlps[i]
}

// RefineConfig parameterizes one Refine pass (online minibatch retraining).
type RefineConfig struct {
	LR       float64
	Momentum float64
	Epochs   int
	Seed     uint64 // shuffles the minibatch order; vary per retrain
	// HeadOnly updates only each MLP's output layer, leaving the shared
	// representation frozen — the per-tenant adapter setting.
	HeadOnly bool
}

// Refine runs seeded SGD over examples WITHOUT refitting the scalers: the
// feature/label standardization (and therefore the normalized-label path
// matching space) stays exactly as Train left it, so Resolve stays consistent
// across incremental updates. This is the online-learning training step; it
// returns the mean pre-update loss of the final epoch. The first Refine of a
// clone copies the MLPs it trains. Refine must not run concurrently with
// Resolve — the serving loops call it serially between dispatches. It fails
// with ErrNotTrained before Train.
func (p *Pilot) Refine(examples []*Example, rc RefineConfig) (float64, error) {
	if !p.Trained() {
		return 0, fmt.Errorf("pilot: Refine before Train: %w", ErrNotTrained)
	}
	if len(examples) == 0 {
		return 0, nil
	}
	p.version++
	if rc.Epochs <= 0 {
		rc.Epochs = 1
	}
	from := 0
	if rc.HeadOnly {
		from = len(p.mlps[0].Layers) - 1
	}
	rng := mathx.NewRNG(rc.Seed ^ 0x0b5e55ed)
	fbuf := make([]float64, len(p.featMean))
	lbuf := make([]float64, len(p.labelMean))
	var lastLoss float64
	for epoch := 0; epoch < rc.Epochs; epoch++ {
		perm := rng.Perm(len(examples))
		var lossSum float64
		for _, idx := range perm {
			e := examples[idx]
			normalize(e.Features, p.featMean, p.featStd, fbuf)
			normalize(e.Label, p.labelMean, p.labelStd, lbuf)
			lossSum += p.own(int(e.Base)).TrainStepFrom(fbuf, lbuf, rc.LR, rc.Momentum, from)
		}
		lastLoss = lossSum / float64(len(examples))
	}
	return lastLoss, nil
}

// inferNorm normalizes features and runs the base type's MLP on them in
// pooled scratch. The returned normalized output aliases *buf; the caller
// puts buf back into p.scratch once it is done with the output.
func (p *Pilot) inferNorm(base dynn.BaseType, features []float64) ([]float64, *[]float64) {
	m := p.mlps[int(base)]
	n := m.InputSize() + m.ScratchLen()
	buf, ok := p.scratch.Get().(*[]float64)
	if !ok || len(*buf) < n {
		s := make([]float64, n)
		buf = &s
	}
	fbuf := (*buf)[:len(features)]
	normalize(features, p.featMean, p.featStd, fbuf)
	return m.Run(fbuf, (*buf)[m.InputSize():]), buf
}

// Resolution is the result of one pilot inference plus output→path mapping.
type Resolution struct {
	Path    *PathInfo
	Exact   bool      // bookkeeping record matched within tolerance
	Output  []float64 // denormalized pilot output (block descriptor rows)
	InferNS int64
	MapNS   int64
}

// exactMatchRMS is the per-dimension RMS threshold (in normalized label
// units) below which a match counts as exact.
const exactMatchRMS = 0.35

// pathLabelsNorm returns (building on first use) the context's path labels
// in the pilot's normalized label space, in the layout nearestPath scans:
// lane-interleaved groups of mathx.Lanes paths, element k of path
// g·Lanes+ℓ at [(g·width+k)·Lanes+ℓ]. A partial last group's padding lanes
// copy the group's first path, so their partial sums equal its own and
// never change the early-exit decision. Safe for concurrent use: the
// projection is computed outside the lock and the first writer wins.
func (p *Pilot) pathLabelsNorm(ctx *ModelContext) []float64 {
	p.normMu.RLock()
	cached, ok := p.normLabels[ctx]
	p.normMu.RUnlock()
	if ok {
		return cached
	}
	out := interleaveNorm(ctx.Paths, p.labelMean, p.labelStd)
	p.normMu.Lock()
	defer p.normMu.Unlock()
	if cached, ok := p.normLabels[ctx]; ok {
		return cached
	}
	p.normLabels[ctx] = out
	return out
}

// interleaveNorm normalizes every path's label straight into its lane of
// pathLabelsNorm's layout, with normalize's expression, in one allocation.
func interleaveNorm(paths []*PathInfo, mean, std []float64) []float64 {
	if len(paths) == 0 {
		return nil
	}
	const lanes = mathx.Lanes
	w := len(paths[0].Label)
	groups := (len(paths) + lanes - 1) / lanes
	out := make([]float64, groups*lanes*w)
	for g := 0; g < groups; g++ {
		block := out[g*lanes*w : (g+1)*lanes*w]
		for l := 0; l < lanes; l++ {
			i := g*lanes + l
			if i >= len(paths) {
				i = g * lanes
			}
			for k, x := range paths[i].Label {
				block[k*lanes+l] = (x - mean[k]) / std[k]
			}
		}
	}
	return out
}

// Resolve predicts and maps the output onto a resolution path of the
// example's model (§IV-B traverse-and-match over the per-block bookkeeping
// records). Resolve is safe for concurrent use once the pilot is trained;
// it must not run concurrently with Train. It fails with ErrNotTrained
// before Train.
func (p *Pilot) Resolve(e *Example) (Resolution, error) {
	if !p.Trained() {
		return Resolution{}, fmt.Errorf("pilot: Resolve before Train: %w", ErrNotTrained)
	}
	sw := obsv.StartTimer()
	predNorm, buf := p.inferNorm(e.Base, e.Features)
	inferNS := sw.ElapsedNS()

	mapSW := obsv.StartTimer()
	bestIdx, bestDist := nearestPath(p.pathLabelsNorm(e.Ctx), len(e.Ctx.Paths), predNorm)
	mapNS := mapSW.ElapsedNS()

	out := make([]float64, len(predNorm))
	denormalize(predNorm, p.labelMean, p.labelStd, out)
	p.scratch.Put(buf)
	res := Resolution{Output: out, InferNS: inferNS, MapNS: mapNS}
	if bestIdx >= 0 {
		res.Path = e.Ctx.Paths[bestIdx]
		rms := bestDist / float64(len(out))
		res.Exact = rms < exactMatchRMS*exactMatchRMS
	}
	return res, nil
}

// nearestPath returns the index of the path label nearest pred in squared
// Euclidean distance, with that distance, or (-1, 0) when n is 0. labels
// holds n labels of equal width in pathLabelsNorm's layout: lane-interleaved
// groups of mathx.Lanes, the last group padded to full. pred may be longer
// than the width, and only its first width elements are compared.
//
// The result, index and distance bits alike, equals a naive scan that sums
// each candidate's squared differences left to right and keeps the first
// strictly smaller one. mathx.SqDist16 scores a group of 16 candidates per
// call, each summed in that same order, and nearestPath commits the group's
// lanes in index order, so ties still go to the lowest index. At every
// descriptor-row boundary the kernel abandons the group once all 16 partial
// sums are >= the best distance so far: the remaining terms are
// non-negative and rounding is monotone, so no full sum could come out
// strictly smaller. Before the first commit the bound is NaN, which never
// abandons.
func nearestPath(labels []float64, n int, pred []float64) (int, float64) {
	if n == 0 {
		return -1, 0
	}
	groups := (n + mathx.Lanes - 1) / mathx.Lanes
	w := len(labels) / (groups * mathx.Lanes)
	pred = pred[:w]
	best, bestDist := -1, 0.0
	var d [mathx.Lanes]float64
	for g := 0; g < groups; g++ {
		bound := bestDist
		if best < 0 {
			bound = math.NaN()
		}
		if mathx.SqDist16(labels[g*w*mathx.Lanes:(g+1)*w*mathx.Lanes], pred, sentinel.DescriptorLen, bound, &d) {
			continue
		}
		for l, dist := range d[:min(mathx.Lanes, n-g*mathx.Lanes)] {
			if best < 0 || dist < bestDist {
				best, bestDist = g*mathx.Lanes+l, dist
			}
		}
	}
	return best, bestDist
}

// ConfusedPair is one (truth path, predicted path) mis-prediction bucket.
type ConfusedPair struct {
	TruthKey     string
	PredictedKey string // "" when the pilot mapped to no path at all
	Count        int
}

// EvalReport summarizes one Evaluate pass: accuracy, the mis-prediction
// count, the mean inference latency, and the per-path confusion summary —
// every (truth, predicted) pair the pilot got wrong, most frequent first.
type EvalReport struct {
	Samples        int
	Accuracy       float64
	Mispredictions int
	MeanLatency    time.Duration
	// Confusion lists the mis-predicted path pairs sorted by count
	// descending (ties broken by truth then predicted key, so the order is
	// deterministic). Use TopConfusions for the report-sized head.
	Confusion []ConfusedPair
}

// TopConfusions returns the k most frequent confused pairs (all of them when
// k <= 0 or exceeds the set).
func (r EvalReport) TopConfusions(k int) []ConfusedPair {
	if k <= 0 || k > len(r.Confusion) {
		k = len(r.Confusion)
	}
	return r.Confusion[:k]
}

// Evaluate measures prediction accuracy over examples: a prediction is
// correct when the mapped path equals the ground-truth path. Beyond the
// accuracy and mis-prediction count it reports which path pairs the pilot
// confuses, so "53% mispredicts on Tree-CNN" has a shape, not just a number.
// It fails with ErrNotTrained before Train.
func (p *Pilot) Evaluate(examples []*Example) (EvalReport, error) {
	rep := EvalReport{Samples: len(examples)}
	if len(examples) == 0 {
		return rep, nil
	}
	var correct int
	var totalLatNS int64
	type pair struct{ truth, pred string }
	confused := map[pair]int{}
	for _, e := range examples {
		res, err := p.Resolve(e)
		if err != nil {
			return EvalReport{}, err
		}
		totalLatNS += res.InferNS
		if res.Path != nil && res.Path.Key == e.TruthKey {
			correct++
			continue
		}
		rep.Mispredictions++
		pr := ""
		if res.Path != nil {
			pr = res.Path.Key
		}
		confused[pair{truth: e.TruthKey, pred: pr}]++
	}
	pairs := make([]pair, 0, len(confused))
	for k := range confused {
		pairs = append(pairs, k) //dynnlint:ignore determinism pairs are sorted immediately below
	}
	sort.Slice(pairs, func(i, j int) bool {
		if confused[pairs[i]] != confused[pairs[j]] {
			return confused[pairs[i]] > confused[pairs[j]]
		}
		if pairs[i].truth != pairs[j].truth {
			return pairs[i].truth < pairs[j].truth
		}
		return pairs[i].pred < pairs[j].pred
	})
	for _, k := range pairs {
		rep.Confusion = append(rep.Confusion, ConfusedPair{
			TruthKey: k.truth, PredictedKey: k.pred, Count: confused[k],
		})
	}
	rep.Accuracy = float64(correct) / float64(len(examples))
	rep.MeanLatency = time.Duration(totalLatNS / int64(len(examples)))
	return rep, nil
}

// String describes the pilot briefly.
func (p *Pilot) String() string {
	return fmt.Sprintf("pilot(neurons=%d repr=%s params=%d)", p.Cfg.Neurons, p.Cfg.Features.Repr, p.Params())
}
