package pilot

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/sentinel"
	"dynnoffload/internal/trace"
)

// DefaultMaxBlocks is the number of execution-block rows in the pilot output
// (the paper: the number of blocks is typically O(10)).
const DefaultMaxBlocks = 10

// PathKey identifies a resolution path by its reached-site decisions.
func PathKey(r *graph.Resolved) string {
	var sb strings.Builder
	for site, d := range r.Decisions {
		if !r.Reached[site] {
			sb.WriteString("-,")
			continue
		}
		sb.WriteString(strconv.Itoa(d))
		sb.WriteByte(',')
	}
	return sb.String()
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

	// Sig is the canonical control-flow signature of the resolved path
	// (graph.PathSignature): decision vectors routing into the same operator
	// sequence share one Sig, and with it one resolved plan.
	Sig string
	// PlanKey is a fixed-width digest of Sig plus the model-context
	// fingerprint (cost model, partition budget, block clamp) — everything
	// besides the path itself that the trace, analysis, and block partition
	// were derived from. Two PathInfos with equal PlanKeys have numerically
	// identical analyses and partitions, so they may share a resolved plan
	// across engines and sweep grid points. The digest is a 128-bit
	// graph.SignatureHash128 rendered as "ph1\x00" + 32 hex digits, so the
	// plan cache's L2 map compares 36 bytes per probe instead of walking a
	// signature string that grows with model depth. Empty on hand-built
	// PathInfos, which then only plan-cache per engine by pointer identity.
	PlanKey string
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
	paths, err := graph.EnumeratePaths(m.Static())
	if err != nil {
		return nil, fmt.Errorf("pilot: %s: %w", m.Name(), err)
	}
	ctx := &ModelContext{
		Model: m, CM: cm, Budget: budget, MaxBlocks: maxBlocks,
		byKey:  map[string]*PathInfo{},
		states: dynn.StateBytes(m),
	}

	// First pass: expand iterations and traces.
	for i := range paths {
		p := &paths[i]
		it := graph.ExpandTraining(m.Registry(), p.Resolved, m.WeightStates(), true)
		tr := trace.FromIteration(m.Name(), it, cm)
		an := sentinel.NewAnalysis(tr, cm)
		info := &PathInfo{
			Key:       PathKey(p.Resolved),
			Decisions: p.Decisions,
			Iteration: it,
			Trace:     tr,
			Analysis:  an,
			Stats:     iterStats(tr),
			Sig:       graph.PathSignature(p.Resolved),
		}
		ctx.Paths = append(ctx.Paths, info)
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
		for i := 0; i < info.Analysis.NumOps(); i++ {
			if w := info.Analysis.WorkingBytes(sentinel.Block{Start: i, End: i + 1}); w > ctx.Budget {
				ctx.Budget = w
			}
		}
	}

	// Second pass: partition and label.
	fp := ctxFingerprint(cm, ctx.Budget, maxBlocks)
	for _, info := range ctx.Paths {
		blocks := info.Analysis.Partition(ctx.Budget)
		if blocks == nil {
			return nil, fmt.Errorf("pilot: %s: infeasible budget %d", m.Name(), ctx.Budget)
		}
		blocks = clampBlocks(blocks, maxBlocks)
		info.Blocks = blocks
		info.Label = labelVector(info.Analysis, blocks, maxBlocks)
		info.PlanKey = planKey(info.Sig, fp)
	}
	return ctx, nil
}

// planKey renders the compact plan-sharing key: a versioned 128-bit digest of
// the path signature and the context fingerprint (see PathInfo.PlanKey). The
// "ph1\x00" prefix versions the hash construction and keeps the digest
// disjoint from any legacy signature-string key (signatures never contain
// NUL bytes in their first four characters' positions this way).
func planKey(sig, fp string) string {
	hi, lo := graph.SignatureHash128(sig, fp)
	var d [16]byte
	binary.BigEndian.PutUint64(d[:8], hi)
	binary.BigEndian.PutUint64(d[8:], lo)
	return "ph1\x00" + hex.EncodeToString(d[:])
}

// ctxFingerprint renders the context parameters a path's analysis and block
// partition depend on, so PathInfo.PlanKey separates plans built under
// different cost models or budgets (see PathInfo.PlanKey).
func ctxFingerprint(cm gpusim.CostModel, budget int64, maxBlocks int) string {
	var sb strings.Builder
	f := func(v float64) {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	i := func(v int64) {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatInt(v, 10))
	}
	f(cm.Dev.FLOPS)
	f(cm.Dev.MemBW)
	f(cm.Dev.ComputeEff)
	f(cm.Dev.BandwidthEff)
	i(cm.Dev.LaunchNS)
	f(cm.Link.BW)
	i(cm.Link.LatencyNS)
	i(budget)
	i(int64(maxBlocks))
	return sb.String()
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

// TruthPath resolves the ground-truth path for a sample.
func (ctx *ModelContext) TruthPath(s *dynn.Sample) (*PathInfo, error) {
	r, err := ctx.Model.Resolve(s)
	if err != nil {
		return nil, err
	}
	info := ctx.byKey[PathKey(r)]
	if info == nil {
		return nil, fmt.Errorf("pilot: %s: sample %d resolves to unknown path", ctx.Model.Name(), s.ID)
	}
	return info, nil
}

// AggregateFromLabel converts a (predicted) label vector into the aggregate
// bookkeeping record used for path matching: element 0 sums to the operator
// count, elements 1..9 of each row sum into the signature aggregate.
func AggregateFromLabel(label []float64) graph.Stats {
	var st graph.Stats
	for off := 0; off+sentinel.DescriptorLen <= len(label); off += sentinel.DescriptorLen {
		row := label[off : off+sentinel.DescriptorLen]
		st.OpCount += int(row[0] + 0.5)
		for k := 0; k < 9; k++ {
			st.Sig[k] += row[1+k]
		}
	}
	return st
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
