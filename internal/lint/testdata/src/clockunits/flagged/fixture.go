// Package fixture seeds every clockunits violation class: simulated-vs-wall
// comparison, sim+wall addition, bytes-vs-time comparison, and a wall value
// folded into a simulated accumulator.
package fixture

import (
	"dynnoffload/internal/core"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// DeviceBudget compares the simulated busy horizon against a host stopwatch:
// the two clocks must never meet.
func DeviceBudget(s *gpusim.Streams, sw obsv.Stopwatch, ready, dur int64) bool {
	_, busy := s.RunSpan(gpusim.LaneCompute, ready, dur)
	host := sw.ElapsedNS()
	return busy < host
}

// GrandTotal adds the pilot's wall-clock latency into a simulated sum.
func GrandTotal(r core.SampleResult) int64 {
	device := r.Breakdown.ComputeNS + r.Breakdown.ExposedXferNS
	return device + r.PilotNS
}

// BytesVsTime compares traffic against device time.
func BytesVsTime(b gpusim.Breakdown) bool {
	return b.H2DBytes > b.ComputeNS
}

// Accumulate folds the mapping latency into a simulated accumulator.
func Accumulate(b gpusim.Breakdown, res pilot.Resolution) int64 {
	var busy int64
	busy = b.ComputeNS
	busy += res.MapNS
	return busy
}

// FoldPilot charges the pilot's host stopwatches to the simulated overhead.
func FoldPilot(res core.SampleResult) core.SampleResult {
	res.Breakdown.OverheadNS += res.PilotNS + res.MappingNS
	return res
}
