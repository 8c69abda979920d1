package sentinel

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/tensor"
	"dynnoffload/internal/trace"
)

// mapAnalysis is the map-keyed liveness index NewAnalysis built before the
// dense renumbering, kept as the test oracle for sentinel.go: the same
// queries and the same Partition, answered from maps keyed by tensor ID with
// a fresh dedup map per block query. It embeds the dense Analysis only for
// what never used a map (the trace, the cost model, operator counts, compute
// prefix sums and the even splits), so a renumbering, slot-order or dedup bug
// in the dense index shows up as a divergence here.
type mapAnalysis struct {
	*Analysis

	bytesOf  map[int64]int64
	firstUse map[int64]int // op index of first reference
	lastUse  map[int64]int // op index of last reference
	producer map[int64]int // op index of first production (-1 if none)
}

func newMapAnalysis(tr *trace.Trace, cm gpusim.CostModel) *mapAnalysis {
	a := &mapAnalysis{
		Analysis: NewAnalysis(tr, cm),
		bytesOf:  map[int64]int64{},
		firstUse: map[int64]int{},
		lastUse:  map[int64]int{},
		producer: map[int64]int{},
	}
	for _, t := range tr.Tensors {
		a.bytesOf[t.ID] = t.Bytes
	}
	for i, r := range tr.Records {
		for _, id := range r.Inputs {
			if _, ok := a.firstUse[id]; !ok {
				a.firstUse[id] = i
			}
			a.lastUse[id] = i
		}
		for _, id := range r.Outputs {
			if _, ok := a.firstUse[id]; !ok {
				a.firstUse[id] = i
			}
			a.lastUse[id] = i
			if _, ok := a.producer[id]; !ok {
				a.producer[id] = i
			}
		}
	}
	return a
}

// forEachTensor visits each distinct tensor referenced in the block once.
func (a *mapAnalysis) forEachTensor(b Block, fn func(id int64)) {
	seen := map[int64]bool{}
	for i := b.Start; i < b.End; i++ {
		r := &a.Trace.Records[i]
		for _, id := range r.Inputs {
			if !seen[id] {
				seen[id] = true
				fn(id)
			}
		}
		for _, id := range r.Outputs {
			if !seen[id] {
				seen[id] = true
				fn(id)
			}
		}
	}
}

func (a *mapAnalysis) WorkingBytes(b Block) int64 {
	var total int64
	a.forEachTensor(b, func(id int64) { total += a.bytesOf[id] })
	return total
}

func (a *mapAnalysis) FetchBytes(b, prev Block) int64 {
	var total int64
	a.forEachTensor(b, func(id int64) {
		p, produced := a.producer[id]
		if produced && p >= prev.Start && p < b.End && p <= a.firstUse[id] {
			return // materialized on-GPU in this or the previous block
		}
		total += a.bytesOf[id]
	})
	return total
}

func (a *mapAnalysis) EvictBytes(b Block, after int) int64 {
	var total int64
	seen := map[int64]bool{}
	for i := b.Start; i < b.End; i++ {
		for _, id := range a.Trace.Records[i].Outputs {
			if seen[id] {
				continue
			}
			seen[id] = true
			if a.lastUse[id] >= after {
				total += a.bytesOf[id]
			}
		}
	}
	return total
}

func (a *mapAnalysis) PersistentBytes() int64 {
	var total int64
	for _, id := range a.PersistentIDs() {
		total += a.bytesOf[id]
	}
	return total
}

// PersistentIDs identifies cross-iteration tensors from the ID-keyed kind
// table, as the map-based analysis did.
func (a *mapAnalysis) PersistentIDs() []int64 {
	kinds := a.Trace.TensorKinds()
	out := map[int64]bool{}
	for _, t := range a.Trace.Tensors {
		switch t.Kind {
		case tensor.Weight, tensor.OptState, tensor.Constant:
			out[t.ID] = true
		}
	}
	for _, r := range a.Trace.Records {
		if r.Phase != trace.Optimizer {
			continue
		}
		for _, id := range r.Inputs {
			if kinds[id] == tensor.Gradient {
				out[id] = true
			}
		}
	}
	return sortedKeys(out)
}

func sortedKeys(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for id := range m {
		out = append(out, id) //dynnlint:ignore determinism keys are sorted before any order-dependent use
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (a *mapAnalysis) PeakResidentBytes() int64 {
	persistent := map[int64]bool{}
	var base int64
	for _, id := range a.PersistentIDs() {
		persistent[id] = true
		base += a.bytesOf[id]
	}
	n := a.NumOps()
	allocAt := make([][]int64, n)
	freeAfter := make([][]int64, n)
	for id, first := range a.firstUse {
		if !persistent[id] {
			allocAt[first] = append(allocAt[first], id)
		}
	}
	for id, last := range a.lastUse {
		if !persistent[id] {
			freeAfter[last] = append(freeAfter[last], id)
		}
	}
	var cur, peak int64
	for i := 0; i < n; i++ {
		for _, id := range allocAt[i] {
			cur += a.bytesOf[id]
		}
		if cur > peak {
			peak = cur
		}
		for _, id := range freeAfter[i] {
			cur -= a.bytesOf[id]
		}
	}
	return base + peak
}

func (a *mapAnalysis) MaxSingleOpBytes() int64 {
	var m int64
	for i := 0; i < a.NumOps(); i++ {
		if w := a.WorkingBytes(Block{Start: i, End: i + 1}); w > m {
			m = w
		}
	}
	return m
}

func (a *mapAnalysis) BytesOf(id int64) int64 { return a.bytesOf[id] }

// workingIDs lists the distinct tensors a block touches, in first-reference
// order: the order BlockPlan.WorkingIDs records.
func workingIDs(a *Analysis, b Block) []int64 {
	var out []int64
	a.forEachTensor(b, func(x int32) { out = append(out, a.ids[x]) })
	return out
}

func (a *mapAnalysis) WorkingIDs(b Block) []int64 {
	var out []int64
	a.forEachTensor(b, func(id int64) { out = append(out, id) })
	return out
}

func (a *mapAnalysis) LastUse(id int64) int {
	if v, ok := a.lastUse[id]; ok {
		return v
	}
	return -1
}

func (a *mapAnalysis) Producer(id int64) int {
	if v, ok := a.producer[id]; ok {
		return v
	}
	return -1
}

// PipelineEstimate simulates the schedule as a two-clock event loop (the
// migration and compute engines advance block by block), an independent
// reference for partition.go's closed form. Partition and refine are
// partition.go's. All three answer from the oracle's map queries.
func (a *mapAnalysis) PipelineEstimate(blocks []Block) (totalNS, exposedNS int64) {
	if len(blocks) == 0 {
		return 0, 0
	}
	none := Block{}
	var mig int64 // migration engine busy-until
	var cmp int64 // compute busy-until

	// Initial prefetch of block 0.
	mig = a.CM.BatchedXferTime(a.FetchBytes(blocks[0], none))
	for i := range blocks {
		start := mig
		if cmp > start {
			start = cmp
		}
		if start > cmp {
			exposedNS += start - cmp
		}
		// Kick the migration for block i+1 at the start of block i.
		if i+1 < len(blocks) {
			var evict int64
			if i > 0 {
				evict = a.EvictBytes(blocks[i-1], blocks[i+1].Start)
			}
			fetch := a.FetchBytes(blocks[i+1], blocks[i])
			dur := a.CM.BatchedXferTime(evict) + a.CM.BatchedXferTime(fetch)
			ms := mig
			if start > ms {
				ms = start
			}
			mig = ms + dur
		}
		cmp = start + a.ComputeNS(blocks[i])
	}
	if mig > cmp { // trailing write-back exposed at iteration end
		exposedNS += mig - cmp
		cmp = mig
	}
	return cmp, exposedNS
}

func (a *mapAnalysis) Partition(budget int64) []Block {
	n := a.NumOps()
	if n == 0 {
		return nil
	}
	// Greedy capacity segmentation.
	var greedy []Block
	start := 0
	for start < n {
		end := start + 1
		if a.WorkingBytes(Block{start, end}) > budget {
			return nil // single op exceeds the buffer: infeasible
		}
		for end < n && a.WorkingBytes(Block{start, end + 1}) <= budget {
			end++
		}
		greedy = append(greedy, Block{start, end})
		start = end
	}
	if len(greedy) == 1 {
		return greedy // fits entirely; no pipelining needed
	}

	fits := func(blocks []Block) bool {
		for _, b := range blocks {
			if a.WorkingBytes(b) > budget {
				return false
			}
		}
		return true
	}
	candidates := [][]Block{greedy}
	k := len(greedy)
	for _, seed := range [][]Block{a.EvenOps(k), a.EvenTime(k), a.EvenBytes(k), a.EvenOps(k + 1), a.EvenTime(k + 1)} {
		if Validate(seed, n) == nil && fits(seed) {
			candidates = append(candidates, seed)
		}
	}
	var best []Block
	var bestNS int64 = -1
	for _, cand := range candidates {
		a.refine(cand, budget)
		if t, _ := a.PipelineEstimate(cand); bestNS < 0 || t < bestNS {
			bestNS = t
			best = cand
		}
	}
	return best
}

func (a *mapAnalysis) refine(blocks []Block, budget int64) {
	best, _ := a.PipelineEstimate(blocks)
	for pass := 0; pass < 4; pass++ {
		improved := false
		for i := 0; i+1 < len(blocks); i++ {
			for _, delta := range []int{-8, -4, -2, -1, 1, 2, 4, 8} {
				nb := blocks[i].End + delta
				if nb <= blocks[i].Start || nb >= blocks[i+1].End {
					continue
				}
				l, r := Block{blocks[i].Start, nb}, Block{nb, blocks[i+1].End}
				if a.WorkingBytes(l) > budget || a.WorkingBytes(r) > budget {
					continue
				}
				old := blocks[i].End
				blocks[i].End, blocks[i+1].Start = nb, nb
				if t, _ := a.PipelineEstimate(blocks); t < best {
					best = t
					improved = true
				} else {
					blocks[i].End, blocks[i+1].Start = old, old
				}
			}
		}
		if !improved {
			break
		}
	}
}

// compareAnalyses checks every query of the dense analysis against the map
// oracle: the iteration aggregates, the by-ID lookups of every tensor (and of
// an ID the trace never names), the block queries on every single-operator
// block, on sliding windows, and on the blocks of Partition at each budget,
// and Partition itself.
func compareAnalyses(t *testing.T, where string, tr *trace.Trace, cm gpusim.CostModel, budgets []int64) {
	t.Helper()
	got, want := NewAnalysis(tr, cm), newMapAnalysis(tr, cm)
	check := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s = %v, oracle %v", where, what, g, w)
		}
	}
	check("PeakResidentBytes", got.PeakResidentBytes(), want.PeakResidentBytes())
	check("MaxSingleOpBytes", got.MaxSingleOpBytes(), want.MaxSingleOpBytes())
	check("PersistentIDs", got.PersistentIDs(), want.PersistentIDs())
	check("PersistentBytes", got.PersistentBytes(), want.PersistentBytes())
	check("TotalBytes", got.TotalBytes(), tr.TotalBytes())
	ids := []int64{-7}
	for _, tn := range tr.Tensors {
		ids = append(ids, tn.ID)
	}
	for _, id := range ids {
		check(fmt.Sprintf("BytesOf(%d)", id), got.BytesOf(id), want.BytesOf(id))
		check(fmt.Sprintf("LastUse(%d)", id), got.LastUse(id), want.LastUse(id))
		check(fmt.Sprintf("Producer(%d)", id), got.Producer(id), want.Producer(id))
	}

	n := got.NumOps()
	blocks := []Block{{0, 0}, {0, n}}
	for i := 0; i < n; i++ {
		blocks = append(blocks, Block{i, i + 1})
		if w := 1 + i%13; i+w <= n {
			blocks = append(blocks, Block{i, i + w})
		}
	}
	var parts [][]Block
	for _, budget := range budgets {
		p := got.Partition(budget)
		check(fmt.Sprintf("Partition(%d)", budget), p, want.Partition(budget))
		if p != nil {
			parts = append(parts, p)
			blocks = append(blocks, p...)
			gt, ge := got.PipelineEstimate(p)
			wt, we := want.PipelineEstimate(p)
			check(fmt.Sprintf("PipelineEstimate(Partition(%d))", budget), [2]int64{gt, ge}, [2]int64{wt, we})
		}
	}
	for _, p := range [][]Block{got.EvenOps(3), got.EvenTime(5)} {
		gt, ge := got.PipelineEstimate(p)
		wt, we := want.PipelineEstimate(p)
		check(fmt.Sprintf("PipelineEstimate(%v)", p), [2]int64{gt, ge}, [2]int64{wt, we})
	}
	prev := Block{}
	for _, b := range blocks {
		what := fmt.Sprintf("block %v", b)
		check(what+" WorkingBytes", got.WorkingBytes(b), want.WorkingBytes(b))
		check(what+" WorkingIDs", workingIDs(got, b), want.WorkingIDs(b))
		check(what+" FetchBytes", got.FetchBytes(b, prev), want.FetchBytes(b, prev))
		for _, after := range []int{0, b.Start, b.End, (b.End + n) / 2, n} {
			check(fmt.Sprintf("%s EvictBytes(after %d)", what, after), got.EvictBytes(b, after), want.EvictBytes(b, after))
		}
		prev = b
	}
	if len(parts) == 0 {
		t.Fatalf("%s: no budget was feasible — the comparison would be vacuous", where)
	}
}

// TestAnalysisMatchesMapOracle pins the dense analysis to the map oracle on
// every resolution path of every zoo model, partitioning each at two
// feasible budgets (a quarter and a sixteenth of the footprint, floored at
// the largest operator) and one infeasible one. The models run in parallel:
// the oracle's Partition costs what labelling did before the dense index.
func TestAnalysisMatchesMapOracle(t *testing.T) {
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	for _, entry := range dynn.Zoo() {
		t.Run(entry.Name, func(t *testing.T) {
			t.Parallel()
			m := entry.New(8, 1)
			paths, err := graph.EnumeratePaths(m.Static())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				it := graph.ExpandTraining(m.Registry(), p.Resolved, m.WeightStates(), true)
				tr := trace.FromIteration(m.Name(), it, cm)
				an := NewAnalysis(tr, cm)
				floor := an.MaxSingleOpBytes()
				budgets := []int64{max64(tr.TotalBytes()/4, floor), max64(tr.TotalBytes()/16, floor), floor - 1}
				compareAnalyses(t, fmt.Sprintf("%v", p.Decisions), tr, cm, budgets)
			}
		})
	}
}

// TestAnalysisMatchesMapOracleOnHandBuiltTraces covers what traces built
// from graphs never contain: a tensor referenced but absent from the tensor
// table, a duplicated table entry, a tensor listed twice in one record, a
// table entry nothing references, and an optimizer input that is a
// gradient.
func TestAnalysisMatchesMapOracleOnHandBuiltTraces(t *testing.T) {
	cm := gpusim.NewCostModel(gpusim.RTXPlatform())
	tr := &trace.Trace{
		Model: "hand",
		Records: []trace.OpRecord{
			{TimeNS: 5, Inputs: []int64{1, 2, 2}, Outputs: []int64{3}},
			{TimeNS: 7, Inputs: []int64{3, 99}, Outputs: []int64{4, 4}},
			{TimeNS: 3, Phase: trace.Backward, Inputs: []int64{4, 3}, Outputs: []int64{5, 3}},
			{TimeNS: 2, Phase: trace.Optimizer, Inputs: []int64{5, 1}, Outputs: []int64{1}},
		},
		Tensors: []trace.TensorRecord{
			{ID: 1, Kind: tensor.Weight, Bytes: 100},
			{ID: 2, Kind: tensor.Input, Bytes: 40},
			{ID: 3, Kind: tensor.Activation, Bytes: 60},
			{ID: 4, Kind: tensor.Activation, Bytes: 80},
			{ID: 5, Kind: tensor.Gradient, Bytes: 100},
			{ID: 3, Kind: tensor.Activation, Bytes: 65},
			{ID: 8, Kind: tensor.Constant, Bytes: 9},
		},
	}
	compareAnalyses(t, "hand-built", tr, cm, []int64{1 << 20, 300, 200})
}

// TestAnalysisConcurrentReaders pins the concurrency contract plan
// compilation relies on: one Analysis queried from several goroutines at
// once (Partition, block plans, by-ID lookups) answers exactly as it does
// serially. Run under -race it also shows the queries share no scratch.
func TestAnalysisConcurrentReaders(t *testing.T) {
	tr, cm := chainTrace(t, 40, 4096, 2048)
	an := NewAnalysis(tr, cm)
	budget := max64(tr.TotalBytes()/6, an.MaxSingleOpBytes())
	want := an.Partition(budget)
	wantPlan := NewBlockPlan(an, want)
	const readers = 4
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		go func() {
			var err error
			for i := 0; i < 20 && err == nil; i++ {
				blocks := an.Partition(budget)
				switch {
				case !reflect.DeepEqual(blocks, want):
					err = fmt.Errorf("Partition = %v, serially %v", blocks, want)
				case !reflect.DeepEqual(NewBlockPlan(an, blocks), wantPlan):
					err = fmt.Errorf("block plan differs from the serial one")
				case an.BytesOf(tr.Tensors[i].ID) != tr.Tensors[i].Bytes:
					err = fmt.Errorf("BytesOf(%d) = %d", tr.Tensors[i].ID, an.BytesOf(tr.Tensors[i].ID))
				}
			}
			errs <- err
		}()
	}
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
