package pilot

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
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

	featMean, featStd   []float64
	labelMean, labelStd []float64

	// normLabels caches each model context's path labels projected into the
	// pilot's normalized label space, where output→path matching happens:
	// standardization amplifies exactly the dimensions that discriminate
	// paths, making the match robust to regression noise on the large
	// non-discriminative descriptor elements. Each context's labels sit
	// back to back in one paths×width slice, the layout nearestPath scans.
	// Guarded by normMu so Resolve is safe to call from many goroutines at
	// once.
	normMu     sync.RWMutex
	normLabels map[*ModelContext][]float64

	// scratch pools inference buffers (*[]float64: normalized features,
	// then the MLP's activations), one per in-flight Predict or Resolve, so
	// a warm call allocates only the output it returns. Clone starts a
	// fresh pool. It is a separate object because the runtime keeps a used
	// pool reachable until two GCs later: embedded, it would keep a
	// discarded pilot's weights alive that long too.
	scratch *sync.Pool
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

// Clone returns a deep copy of the pilot: its own MLPs, scaler copies, and a
// fresh normalized-label cache. The online learner refines a clone so the
// serving feedback loop never mutates the offline-trained pilot the training
// engines share.
func (p *Pilot) Clone() *Pilot {
	c := &Pilot{Cfg: p.Cfg, scratch: new(sync.Pool)}
	for i, m := range p.mlps {
		c.mlps[i] = m.Clone()
	}
	c.featMean = append([]float64(nil), p.featMean...)
	c.featStd = append([]float64(nil), p.featStd...)
	c.labelMean = append([]float64(nil), p.labelMean...)
	c.labelStd = append([]float64(nil), p.labelStd...)
	if p.Trained() {
		c.normLabels = map[*ModelContext][]float64{}
	}
	return c
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
// returns the mean pre-update loss of the final epoch. Refine must not run
// concurrently with Resolve — the serving loops call it serially between
// dispatches. It fails with ErrNotTrained before Train.
func (p *Pilot) Refine(examples []*Example, rc RefineConfig) (float64, error) {
	if !p.Trained() {
		return 0, fmt.Errorf("pilot: Refine before Train: %w", ErrNotTrained)
	}
	if len(examples) == 0 {
		return 0, nil
	}
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
			lossSum += p.mlps[int(e.Base)].TrainStepFrom(fbuf, lbuf, rc.LR, rc.Momentum, from)
		}
		lastLoss = lossSum / float64(len(examples))
	}
	return lastLoss, nil
}

// Predict runs one inference: it returns the denormalized label vector (the
// execution-block descriptor rows) and the measured inference latency — the
// paper's ~30 µs overhead per training sample (§VI-C). It fails with
// ErrNotTrained before Train.
func (p *Pilot) Predict(base dynn.BaseType, features []float64) ([]float64, time.Duration, error) {
	if !p.Trained() {
		return nil, 0, fmt.Errorf("pilot: Predict before Train: %w", ErrNotTrained)
	}
	sw := obsv.StartTimer()
	raw, buf := p.inferNorm(base, features)
	out := make([]float64, len(raw))
	denormalize(raw, p.labelMean, p.labelStd, out)
	p.scratch.Put(buf)
	return out, sw.Elapsed(), nil
}

// inferNorm normalizes features and runs the base type's MLP on them in
// pooled scratch. The returned normalized output aliases *buf; the caller
// puts buf back into p.scratch once it is done with the output.
func (p *Pilot) inferNorm(base dynn.BaseType, features []float64) ([]float64, *[]float64) {
	m := p.mlps[int(base)]
	buf, ok := p.scratch.Get().(*[]float64)
	if !ok {
		s := make([]float64, m.InputSize()+m.InferScratchLen())
		buf = &s
	}
	fbuf := (*buf)[:len(features)]
	normalize(features, p.featMean, p.featStd, fbuf)
	return m.InferInto(fbuf, (*buf)[m.InputSize():]), buf
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

// pathLabelsNorm returns (building on first use) the context's path labels in
// the pilot's normalized label space, back to back in one paths×width slice.
// Safe for concurrent use: the projection is computed outside the lock and
// the first writer wins.
func (p *Pilot) pathLabelsNorm(ctx *ModelContext) []float64 {
	p.normMu.RLock()
	cached, ok := p.normLabels[ctx]
	p.normMu.RUnlock()
	if ok {
		return cached
	}
	var out []float64
	for _, info := range ctx.Paths {
		n := len(out)
		out = append(out, info.Label...)
		normalize(info.Label, p.labelMean, p.labelStd, out[n:])
	}
	p.normMu.Lock()
	defer p.normMu.Unlock()
	if cached, ok := p.normLabels[ctx]; ok {
		return cached
	}
	p.normLabels[ctx] = out
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
// holds n labels of equal width back to back; pred may be longer than the
// width, and only its first width elements are compared.
//
// The result, index and distance bits alike, equals a naive scan that sums
// each candidate's squared differences left to right and keeps the first
// strictly smaller one. Each candidate here is summed in that same order and
// ties still go to the lowest index. Four candidates share a pass, and at
// every descriptor-row boundary the pass abandons the group once all four
// partial sums are >= the best distance so far: the remaining terms are
// non-negative and rounding is monotone, so no full sum could come out
// strictly smaller.
func nearestPath(labels []float64, n int, pred []float64) (int, float64) {
	if n == 0 {
		return -1, 0
	}
	w := len(labels) / n
	pred = pred[:w]
	best, bestDist := -1, 0.0
groups:
	for i := 0; i < n; i += 4 {
		// Lanes past the last path re-score path i: their partial sums
		// equal d0, so they never change the early-exit test, and they are
		// never committed.
		c0 := labels[i*w : (i+1)*w]
		c1, c2, c3 := c0, c0, c0
		if i+1 < n {
			c1 = labels[(i+1)*w : (i+2)*w]
		}
		if i+2 < n {
			c2 = labels[(i+2)*w : (i+3)*w]
		}
		if i+3 < n {
			c3 = labels[(i+3)*w : (i+4)*w]
		}
		var d0, d1, d2, d3 float64
		for j := 0; j < w; j += sentinel.DescriptorLen {
			row := pred[j:min(j+sentinel.DescriptorLen, w)]
			r0, r1, r2, r3 := c0[j:][:len(row)], c1[j:][:len(row)], c2[j:][:len(row)], c3[j:][:len(row)]
			for k, v := range row {
				t0, t1, t2, t3 := v-r0[k], v-r1[k], v-r2[k], v-r3[k]
				d0 += t0 * t0
				d1 += t1 * t1
				d2 += t2 * t2
				d3 += t3 * t3
			}
			if best >= 0 && d0 >= bestDist && d1 >= bestDist && d2 >= bestDist && d3 >= bestDist {
				continue groups
			}
		}
		for k, d := range [4]float64{d0, d1, d2, d3} {
			if i+k < n && (best < 0 || d < bestDist) {
				best, bestDist = i+k, d
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

// MappingOverhead measures the output→path mapping cost (§VI-C: 10–15 µs)
// for one example. It fails with ErrNotTrained before Train.
func (p *Pilot) MappingOverhead(e *Example) (time.Duration, error) {
	res, err := p.Resolve(e)
	if err != nil {
		return 0, err
	}
	return time.Duration(res.MapNS), nil
}

// String describes the pilot briefly.
func (p *Pilot) String() string {
	return fmt.Sprintf("pilot(neurons=%d repr=%s params=%d)", p.Cfg.Neurons, p.Cfg.Features.Repr, p.Params())
}
