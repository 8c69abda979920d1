package gpusim

import "fmt"

// Breakdown decomposes a simulated training run's time the way Fig 8 does:
// computation, exposed (stalling) migration, rematerialization, fault
// handling, and policy overhead. Overlapped migration is tracked for
// reporting but does not add to total time. Every time field is simulated
// nanoseconds: OverheadNS is the modeled cost of a policy's own bookkeeping
// (DTR's interception, ZeRO's CPU optimizer), never a host stopwatch — the
// engine reports its pilot's wall time beside the Breakdown, not in it.
type Breakdown struct {
	ComputeNS     int64
	ExposedXferNS int64
	OverlapXferNS int64
	RematNS       int64
	FaultNS       int64
	OverheadNS    int64

	H2DBytes int64
	D2HBytes int64
	Faults   int

	PeakGPUBytes int64
}

// TotalNS is the simulated total: every component that adds to the run's
// duration on the virtual clock.
func (b Breakdown) TotalNS() int64 {
	return b.ComputeNS + b.ExposedXferNS + b.RematNS + b.FaultNS + b.OverheadNS
}

// DeviceNS is the simulated device time: the total minus the modeled policy
// overhead (compute + exposed + remat + fault), the base the SLO attribution
// decomposes. For an engine result, whose OverheadNS is 0, it equals TotalNS.
func (b Breakdown) DeviceNS() int64 {
	return b.ComputeNS + b.ExposedXferNS + b.RematNS + b.FaultNS
}

// TransferNS is the total migration time, hidden and exposed.
func (b Breakdown) TransferNS() int64 {
	return b.OverlapXferNS + b.ExposedXferNS
}

// OverlapEfficiency is the fraction of migration time hidden under compute
// (0 when nothing migrated). This is the batch-level accounting view; the
// span-level obsv.Timeline measures the same quantity from busy intervals.
func (b Breakdown) OverlapEfficiency() float64 {
	t := b.TransferNS()
	if t == 0 {
		return 0
	}
	return float64(b.OverlapXferNS) / float64(t)
}

// Add accumulates another breakdown (e.g. per-iteration into per-epoch).
func (b Breakdown) Add(o Breakdown) Breakdown {
	b.ComputeNS += o.ComputeNS
	b.ExposedXferNS += o.ExposedXferNS
	b.OverlapXferNS += o.OverlapXferNS
	b.RematNS += o.RematNS
	b.FaultNS += o.FaultNS
	b.OverheadNS += o.OverheadNS
	b.H2DBytes += o.H2DBytes
	b.D2HBytes += o.D2HBytes
	b.Faults += o.Faults
	if o.PeakGPUBytes > b.PeakGPUBytes {
		b.PeakGPUBytes = o.PeakGPUBytes
	}
	return b
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total=%.3fms compute=%.3fms exposed-xfer=%.3fms remat=%.3fms fault=%.3fms overhead=%.3fms (overlapped=%.3fms, h2d=%dMB, d2h=%dMB, faults=%d, peak=%dMB)",
		ms(b.TotalNS()), ms(b.ComputeNS), ms(b.ExposedXferNS), ms(b.RematNS), ms(b.FaultNS), ms(b.OverheadNS),
		ms(b.OverlapXferNS), b.H2DBytes/mib, b.D2HBytes/mib, b.Faults, b.PeakGPUBytes/mib)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
