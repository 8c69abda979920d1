package core

import (
	"dynnoffload/internal/pilot"
	"dynnoffload/internal/trace"
)

// This file implements dynamic batching (§IV-E "Impact of dynamic batching
// in DyNN"): training samples with different resolved dataflow graphs are
// batched by merging operators at the same depth with the same signature
// (TensorFlow-Fold-style depth batching [35]). The paper's two observations
// hold by construction here and are verified in tests:
//
//  1. batching does not change the execution order of each graph's
//     execution blocks, so pilot-guided prefetch remains valid;
//  2. batched operators run longer on the GPU, giving migration *more* room
//     to hide — batching does not compromise DyNN-Offload's effectiveness.

// BatchInterference inflates the arithmetic portion of a batched kernel:
// the paper notes batched operators run longer due to extra cache misses
// from thread-block scheduling [77] and TLB misses [13].
const BatchInterference = 1.1

// BatchedKernelTimeNS models one batched launch: the kernel-launch overhead
// is paid once instead of count times (the benefit of batching), while the
// arithmetic runs count times with interference (the cost, §IV-E).
func BatchedKernelTimeNS(singleNS, launchNS int64, count int) int64 {
	if count <= 1 {
		return singleNS
	}
	arith := float64(singleNS-launchNS) * float64(count) * BatchInterference
	return launchNS + int64(arith)
}

// BatchingReport compares batched vs sequential execution of a set of
// samples' graphs under this engine's cost model.
type BatchingReport struct {
	Graphs          int
	SequentialOps   int
	BatchedLaunches int
	SequentialNS    int64
	BatchedNS       int64
}

// SimulateDynamicBatch evaluates the batching benefit for a set of samples
// of one model context (forward pass, which is where graphs differ).
// Operators of the same name at the same depth fuse into one launch. Each
// path's operators come from its trace, compiled once at context build, so
// a call neither hashes nor allocates; every total is an int64 sum, so the
// order the merged groups are priced in cannot change the report.
func (e *Engine) SimulateDynamicBatch(infos []*pilot.PathInfo) BatchingReport {
	rep := BatchingReport{Graphs: len(infos)}
	launch := e.CM.Dev.LaunchNS
	for i, info := range infos {
		for depth, r := range forwardRecords(info) {
			rep.SequentialOps++
			rep.SequentialNS += e.CM.KernelNS(r.FLOPs, r.Bytes)
			count, flops := 0, int64(0)
			for j, other := range infos {
				o := forwardRecords(other)
				if depth >= len(o) || o[depth].Name != r.Name {
					continue
				}
				if j < i {
					break // the group was priced with graph j
				}
				count++
				flops += o[depth].FLOPs
			}
			if count > 0 {
				rep.BatchedLaunches++
				single := e.CM.KernelNS(flops/int64(count), 0)
				rep.BatchedNS += BatchedKernelTimeNS(single, launch, count)
			}
		}
	}
	return rep
}

// forwardRecords returns the trace records of a path's forward pass: a trace
// lists the iteration's forward operators first, each with its FLOPs and
// Bytes().
func forwardRecords(info *pilot.PathInfo) []trace.OpRecord {
	return info.Trace.Records[:len(info.Iteration.Forward)]
}
