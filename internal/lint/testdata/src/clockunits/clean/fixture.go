// Package fixture is the clean twin of the clockunits flagged fixture: sums
// and comparisons stay within one dimension, and multiplication/division
// (which legitimately change dimension) are left alone.
package fixture

import (
	"dynnoffload/internal/core"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// DeviceTime sums the simulated components only; the modeled policy overhead
// is one of them.
func DeviceTime(b gpusim.Breakdown) int64 {
	return b.ComputeNS + b.ExposedXferNS + b.RematNS + b.FaultNS + b.OverheadNS
}

// HostTime sums the wall-clock components only.
func HostTime(r core.SampleResult, res pilot.Resolution, sw obsv.Stopwatch) int64 {
	return r.PilotNS + r.MappingNS + res.InferNS + res.MapNS + sw.ElapsedNS()
}

// BytesPerSecond changes dimension through division, which is sanctioned.
func BytesPerSecond(b gpusim.Breakdown) int64 {
	if b.ComputeNS == 0 {
		return 0
	}
	return b.H2DBytes * 1000000000 / b.ComputeNS
}

// HostShare compares the two clocks only through a ratio, which is sanctioned.
func HostShare(rep core.EpochReport) float64 {
	return float64(rep.PilotNS+rep.MappingNS) / float64(rep.Breakdown.TotalNS())
}

// Horizon keeps simulated stream times with simulated stream times.
func Horizon(s *gpusim.Streams, ready, dur int64) int64 {
	_, h2d := s.RunSpan(gpusim.LaneH2D, ready, dur)
	_, compute := s.RunSpan(gpusim.LaneCompute, h2d, dur)
	return compute - h2d
}
