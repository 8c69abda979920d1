package gpusim

import "dynnoffload/internal/graph"

// CostModel converts operator work and transfer sizes into virtual time. It
// is a roofline model: an operator costs the maximum of its compute time and
// its memory-traffic time, plus kernel-launch overhead.
type CostModel struct {
	Dev  DeviceSpec
	Link LinkSpec
}

// NewCostModel builds a cost model for a platform's GPU and link.
func NewCostModel(p Platform) CostModel {
	return CostModel{Dev: p.GPU, Link: p.Link}
}

// OpTime returns the execution time of an operator in virtual nanoseconds.
func (c CostModel) OpTime(op *graph.Op) int64 {
	return c.KernelNS(op.FLOPs, op.Bytes())
}

// KernelNS is OpTime from an operator's FLOPs and memory traffic alone, for
// callers that hold those figures (a trace record) rather than the operator.
func (c CostModel) KernelNS(flops, bytes int64) int64 {
	ct := float64(flops) / (c.Dev.FLOPS * c.Dev.ComputeEff) * 1e9
	mt := float64(bytes) / (c.Dev.MemBW * c.Dev.BandwidthEff) * 1e9
	t := ct
	if mt > t {
		t = mt
	}
	return int64(t) + c.Dev.LaunchNS
}

// XferTime returns the time to move n bytes across the CPU–GPU link in one
// transfer.
func (c CostModel) XferTime(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(float64(n)/c.Link.BW*1e9) + c.Link.LatencyNS
}

// BatchedXferTime models migrating a set of tensors as one batched transfer
// (the paper: "tensors typically migrate in batches in order to fully utilize
// interconnect bandwidth"): a single latency charge plus aggregate bytes.
func (c CostModel) BatchedXferTime(total int64) int64 {
	return c.XferTime(total)
}
