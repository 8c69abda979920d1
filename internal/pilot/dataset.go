package pilot

import (
	"errors"
	"fmt"
	"strconv"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/sentinel"
	"dynnoffload/internal/trace"
)

// DefaultMaxBlocks is the number of execution-block rows in the pilot output
// (the paper: the number of blocks is typically O(10)).
const DefaultMaxBlocks = 10

// ErrUnknownPath is returned when a sample resolves to a path absent from
// its model context. Callers match it with errors.Is.
var ErrUnknownPath = errors.New("pilot: unknown resolution path")

// PathKey identifies a resolution path by its reached-site decisions.
func PathKey(r *graph.Resolved) string {
	return string(appendPathKey(nil, r.Decisions, r.Reached))
}

// appendPathKey appends the path key of (decisions, reached) to buf: per
// site, its decision and a comma, or "-," when the site is not reached.
func appendPathKey(buf []byte, decisions []int, reached []bool) []byte {
	for site, d := range decisions {
		if !reached[site] {
			buf = append(buf, '-', ',')
			continue
		}
		buf = strconv.AppendInt(buf, int64(d), 10)
		buf = append(buf, ',')
	}
	return buf
}

// PathInfo caches everything the trainer and runtime need for one resolution
// path of one model: the full training iteration, its trace/analysis, the
// Sentinel blocks (the pilot label), and the iteration-level bookkeeping
// aggregate used for output→path mapping.
type PathInfo struct {
	Key       string
	Decisions []int
	Iteration *graph.Iteration
	Trace     *trace.Trace
	Analysis  *sentinel.Analysis
	Blocks    []sentinel.Block
	Label     []float64   // MaxBlocks×DescriptorLen, padded
	Stats     graph.Stats // aggregate over the full iteration
}

// ModelContext precomputes per-path information for one model. Because the
// Sentinel label depends only on the resolved path (activation shapes are
// sample-independent), labels are computed once per path, not per sample —
// this is what makes building the paper's 24,000-sample training set cheap.
type ModelContext struct {
	Model     dynn.Model
	CM        gpusim.CostModel
	Budget    int64 // double-buffer label budget (bytes)
	MaxBlocks int

	Paths  []*PathInfo
	byKey  map[string]*PathInfo
	states int64 // persistent state bytes
}

// BlocksHint is the target block count when the label budget is derived
// automatically.
const BlocksHint = 6

// NewModelContext enumerates the model's paths and computes per-path labels.
// budget == 0 derives a budget targeting ~BlocksHint blocks on the largest
// path.
func NewModelContext(m dynn.Model, cm gpusim.CostModel, budget int64, maxBlocks int) (*ModelContext, error) {
	if maxBlocks == 0 {
		maxBlocks = DefaultMaxBlocks
	}
	paths, err := AnalyzePaths(m, cm)
	if err != nil {
		return nil, err
	}
	ctx := &ModelContext{
		Model: m, CM: cm, Budget: budget, MaxBlocks: maxBlocks, Paths: paths,
		byKey:  make(map[string]*PathInfo, len(paths)),
		states: dynn.StateBytes(m),
	}
	for _, info := range paths {
		ctx.byKey[info.Key] = info
	}

	if ctx.Budget == 0 {
		var maxBytes int64
		for _, info := range ctx.Paths {
			if b := info.Trace.TotalBytes(); b > maxBytes {
				maxBytes = b
			}
		}
		ctx.Budget = maxBytes / BlocksHint
	}
	// The budget must admit every single operator's working set.
	for _, info := range ctx.Paths {
		ctx.Budget = max(ctx.Budget, info.Analysis.MaxSingleOpBytes())
	}

	// Second pass: partition and label.
	for _, info := range ctx.Paths {
		blocks := info.Analysis.Partition(ctx.Budget)
		if blocks == nil {
			return nil, fmt.Errorf("pilot: %s: infeasible budget %d", m.Name(), ctx.Budget)
		}
		blocks = clampBlocks(blocks, maxBlocks)
		info.Blocks = blocks
		info.Label = labelVector(info.Analysis, blocks, maxBlocks)
	}
	return ctx, nil
}

// AnalyzePaths enumerates the model's resolution paths and builds each one's
// iteration, trace and liveness analysis: the part of NewModelContext that
// neither partitions nor labels, so Blocks and Label stay unset.
func AnalyzePaths(m dynn.Model, cm gpusim.CostModel) ([]*PathInfo, error) {
	paths, err := graph.EnumeratePaths(m.Static())
	if err != nil {
		return nil, fmt.Errorf("pilot: %s: %w", m.Name(), err)
	}
	infos := make([]*PathInfo, len(paths))
	for i, p := range paths {
		it := graph.ExpandTraining(m.Registry(), p.Resolved, m.WeightStates(), true)
		tr := trace.FromIteration(m.Name(), it, cm)
		infos[i] = &PathInfo{Key: PathKey(p.Resolved), Decisions: p.Decisions, Iteration: it, Trace: tr,
			Analysis: sentinel.NewAnalysis(tr, cm), Stats: iterStats(tr)}
	}
	return infos, nil
}

// PressurePlatform shrinks plat's GPU to fraction of the model's largest
// path footprint, reproducing the paper's "model larger than GPU memory"
// regime at any scale. The budget never drops below what double-buffering
// the largest single operator requires (9/4 of it) nor below 1 MiB, and host
// memory grows to 8× the footprint to hold the offloaded remainder. Only the
// paths' analyses are read (AnalyzePaths): nothing is partitioned or
// labelled.
func PressurePlatform(m dynn.Model, plat gpusim.Platform, fraction float64) (gpusim.Platform, error) {
	paths, err := AnalyzePaths(m, gpusim.NewCostModel(plat))
	if err != nil {
		return plat, err
	}
	var maxPeak, maxOp int64
	for _, info := range paths {
		maxPeak = max(maxPeak, info.Analysis.PeakResidentBytes())
		maxOp = max(maxOp, info.Analysis.MaxSingleOpBytes())
	}
	budget := max(int64(fraction*float64(maxPeak)), 9*maxOp/4, 1<<20)
	p := plat.WithMemory(budget)
	p.CPUMemBytes = 8 * maxPeak
	return p, nil
}

// iterStats aggregates the bookkeeping record over a full iteration trace.
func iterStats(tr *trace.Trace) graph.Stats {
	var st graph.Stats
	st.OpCount = len(tr.Records)
	for _, r := range tr.Records {
		st.Sig = st.Sig.Add(r.Sig)
	}
	return st
}

// clampBlocks merges trailing blocks so the partition fits the pilot output
// rows.
func clampBlocks(blocks []sentinel.Block, maxBlocks int) []sentinel.Block {
	if len(blocks) <= maxBlocks {
		return blocks
	}
	out := append([]sentinel.Block(nil), blocks[:maxBlocks]...)
	out[maxBlocks-1].End = blocks[len(blocks)-1].End
	return out
}

// labelVector flattens block descriptors into the padded pilot output vector.
func labelVector(a *sentinel.Analysis, blocks []sentinel.Block, maxBlocks int) []float64 {
	out := make([]float64, maxBlocks*sentinel.DescriptorLen)
	for i, b := range blocks {
		d := a.Descriptor(b)
		copy(out[i*sentinel.DescriptorLen:], d[:])
	}
	return out
}

// PathByKey returns the cached path info, or nil.
func (ctx *ModelContext) PathByKey(key string) *PathInfo { return ctx.byKey[key] }

// TruthPath resolves the ground-truth path for a sample. It walks only the
// control sites (graph.ReachedSites) and builds the key on the stack, so a
// lookup allocates nothing beyond the model's decision vector. A sample
// whose path is not in the context fails with ErrUnknownPath.
func (ctx *ModelContext) TruthPath(s *dynn.Sample) (*PathInfo, error) {
	static := ctx.Model.Static()
	decisions := ctx.Model.Decide(s)
	var reachedBuf [64]bool
	reached := reachedBuf[:]
	if static.NumSites <= len(reached) {
		reached = reached[:static.NumSites]
	} else {
		reached = make([]bool, static.NumSites)
	}
	if err := graph.ReachedSites(static, decisions, reached); err != nil {
		return nil, err
	}
	var keyBuf [128]byte
	info := ctx.byKey[string(appendPathKey(keyBuf[:0], decisions, reached))]
	if info == nil {
		return nil, fmt.Errorf("pilot: %s: sample %d: %w", ctx.Model.Name(), s.ID, ErrUnknownPath)
	}
	return info, nil
}

// Example is one pilot-training sample (§IV-D): features from (sample, AFM,
// base type), label from the Sentinel partition of the ground-truth path.
type Example struct {
	Base     dynn.BaseType
	Features []float64
	Label    []float64
	TruthKey string
	Ctx      *ModelContext
	Sample   *dynn.Sample
}

// BuildExamples encodes samples for one model context under a feature
// configuration.
func BuildExamples(ctx *ModelContext, fc FeatureConfig, samples []*dynn.Sample) ([]*Example, error) {
	arch := fc.ArchFeatures(ctx.Model.Static())
	out := make([]*Example, 0, len(samples))
	for _, s := range samples {
		truth, err := ctx.TruthPath(s)
		if err != nil {
			return nil, err
		}
		out = append(out, &Example{
			Base:     ctx.Model.Base(),
			Features: fc.Encode(s.Embed, arch, ctx.Model.Base()),
			Label:    truth.Label,
			TruthKey: truth.Key,
			Ctx:      ctx,
			Sample:   s,
		})
	}
	return out, nil
}
