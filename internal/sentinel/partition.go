package sentinel

// This file holds the Sentinel partition algorithm (§IV-D) plus the three
// heuristic partitioners of Fig 12 (even operators, even time, even bytes)
// and the shared pipeline time estimator the algorithms optimize against.

// PipelineEstimate models the double-buffered execution of a partition
// (§IV-E): block i's compute starts once its prefetch completed; at the start
// of block i the migration engine retires block i-1's buffer (evict first,
// then prefetch block i+1, serialized to avoid fragmentation). Both engines
// advance from block i's start, so block i+1 starts max(C_i, X_i) later,
// where C_i is block i's compute and X_i = xfer(evict of block i-1) +
// xfer(fetch of block i+1). Over K blocks, with F_0 block 0's fetch:
//
//	total   = xfer(F_0) + Σ_{i<K-1} max(C_i, X_i) + C_{K-1}
//	exposed = xfer(F_0) + Σ_{i<K-1} max(0, X_i - C_i)
//
// The migration engine is idle by the last block's start, so no write-back
// is exposed past the last compute. The fault-free DES
// (core.Engine.SimulatePartition) runs the same schedule, event by event.
func (a *Analysis) PipelineEstimate(blocks []Block) (totalNS, exposedNS int64) {
	if len(blocks) == 0 {
		return 0, 0
	}
	fetch0 := a.CM.BatchedXferTime(a.FetchBytes(blocks[0], Block{}))
	totalNS, exposedNS = fetch0, fetch0
	last := len(blocks) - 1
	for i, b := range blocks[:last] {
		var evict int64
		if i > 0 {
			evict = a.EvictBytes(blocks[i-1], blocks[i+1].Start)
		}
		x := a.CM.BatchedXferTime(evict) + a.CM.BatchedXferTime(a.FetchBytes(blocks[i+1], b))
		c := a.ComputeNS(b)
		totalNS += max(c, x)
		exposedNS += max(0, x-c)
	}
	return totalNS + a.ComputeNS(blocks[last]), exposedNS
}

// Partition computes the Sentinel execution-block partition for the given
// double-buffer budget (bytes available to one buffer): a capacity-greedy
// segmentation plus capacity-feasible even splits as seeds, each refined by
// boundary local search minimizing the pipeline estimate, taking the best.
// It returns nil if some single operator's working set exceeds the budget
// (the model cannot run under this budget at all).
func (a *Analysis) Partition(budget int64) []Block {
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

// refine shifts block boundaries to minimize the pipeline estimate — the
// adaptive sizing that beats the even-split heuristics (Fig 12: "DyNN-Offload
// can adaptively change the partition size to hide tensor migration").
func (a *Analysis) refine(blocks []Block, budget int64) {
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

// EvenOps splits the iteration into n blocks with equal operator counts
// (Fig 12 heuristic 1).
func (a *Analysis) EvenOps(n int) []Block {
	return evenSplit(a.NumOps(), n, func(i int) int64 { return 1 })
}

// EvenTime splits into n blocks with (approximately) equal compute time
// (Fig 12 heuristic 2).
func (a *Analysis) EvenTime(n int) []Block {
	return evenSplit(a.NumOps(), n, func(i int) int64 { return a.Trace.Records[i].TimeNS })
}

// EvenBytes splits into n blocks with (approximately) equal tensor traffic
// (Fig 12 heuristic 3).
func (a *Analysis) EvenBytes(n int) []Block {
	return evenSplit(a.NumOps(), n, func(i int) int64 { return a.Trace.Records[i].Bytes })
}

// evenSplit partitions [0, numOps) into n contiguous blocks with roughly
// equal total weight.
func evenSplit(numOps, n int, weight func(i int) int64) []Block {
	if n <= 0 || numOps == 0 {
		return nil
	}
	if n > numOps {
		n = numOps
	}
	var total int64
	for i := 0; i < numOps; i++ {
		total += weight(i)
	}
	target := total / int64(n)
	blocks := make([]Block, 0, n)
	start := 0
	var acc int64
	for i := 0; i < numOps; i++ {
		acc += weight(i)
		remainingBlocks := n - len(blocks)
		remainingOps := numOps - i - 1
		if (acc >= target && remainingBlocks > 1) || remainingOps < remainingBlocks-1 {
			blocks = append(blocks, Block{start, i + 1})
			start = i + 1
			acc = 0
			if len(blocks) == n-1 {
				break
			}
		}
	}
	if start < numOps {
		blocks = append(blocks, Block{start, numOps})
	}
	return blocks
}
