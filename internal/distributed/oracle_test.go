package distributed

import (
	"testing"

	"dynnoffload/internal/gpusim"
)

// TestRingOracleUncontended is the closed form's property test: on an
// uncontended interconnect (dedicated intra-node links, equal ready times)
// the DES-scheduled ring finishes within integer-rounding slack of
// RingAllReduceNS. The schedule truncates each of the 2(g-1) hop durations
// and splits bytes into floor(bytes/g) chunks, so the two can drift by at
// most a few nanoseconds per step — far inside one link latency.
func TestRingOracleUncontended(t *testing.T) {
	specs := []gpusim.LinkSpec{
		{BW: 50e9, LatencyNS: 5_000},
		{BW: 12.8e9, LatencyNS: 10_000},
		{BW: 1e9, LatencyNS: 100},
	}
	for _, spec := range specs {
		for _, g := range []int{2, 3, 4, 8} {
			for _, bytes := range []int64{1 << 16, 1 << 24, 1 << 28, 12345677} {
				// Everyone on one node: every egress link is dedicated.
				ic := gpusim.NewInterconnect(g, g, spec, spec)
				done, _ := simulateRing(ic, make([]int64, g), bytes)
				var des int64
				for _, d := range done {
					if d > des {
						des = d
					}
				}
				want := RingAllReduceNS(spec, bytes, g)
				steps := int64(2 * (g - 1))
				slack := 4*steps + 4
				if diff := des - want; diff > slack || diff < -slack {
					t.Errorf("bw=%.1fGB/s g=%d bytes=%d: DES %dns vs formula %dns (|diff| > %dns)",
						spec.BW/1e9, g, bytes, des, want, slack)
				}
			}
		}
	}
}

// TestRingOracleSkewedReady: with skewed per-GPU ready times the schedule
// can't beat the straggler's formula time — the ring gates on the last
// entrant — and finishes no later than straggler + formula + slack on
// uncontended links.
func TestRingOracleSkewedReady(t *testing.T) {
	spec := gpusim.LinkSpec{BW: 12.8e9, LatencyNS: 10_000}
	g, bytes := 4, int64(1<<24)
	ready := []int64{0, 250_000, 1_000_000, 125_000}
	ic := gpusim.NewInterconnect(g, g, spec, spec)
	done, _ := simulateRing(ic, ready, bytes)
	var des, straggler int64
	for i, d := range done {
		if d > des {
			des = d
		}
		if ready[i] > straggler {
			straggler = ready[i]
		}
	}
	want := RingAllReduceNS(spec, bytes, g)
	if des < straggler+want/2 {
		t.Errorf("DES %dns implausibly beats straggler %dns + ring", des, straggler)
	}
	if slack := int64(2*(g-1))*4 + 4; des > straggler+want+slack {
		t.Errorf("uncontended skewed ring %dns exceeds straggler %d + formula %d", des, straggler, want)
	}
}

// TestRingOracleContended: pre-loaded offload traffic on the host/PCIe links
// makes the scheduled ring strictly slower than the closed form — the
// contention the formula cannot express, and the reason the DES runtime
// exists.
func TestRingOracleContended(t *testing.T) {
	spec := gpusim.LinkSpec{BW: 12.8e9, LatencyNS: 10_000}
	g, bytes := 4, int64(1<<24)
	// One GPU per node: every ring hop crosses PCIe.
	ic := gpusim.NewInterconnect(g, 1, spec, spec)
	// Inject offload traffic holding GPU 0's host link.
	ic.HostLink(0).Transfer(0, 1<<24)
	done, _ := simulateRing(ic, make([]int64, g), bytes)
	var des int64
	for _, d := range done {
		if d > des {
			des = d
		}
	}
	want := RingAllReduceNS(spec, bytes, g)
	if des <= want {
		t.Errorf("contended ring %dns not slower than closed form %dns", des, want)
	}
	// The injected transfer delays GPU 0's first send by its full duration.
	if minExtra := spec.TransferNS(1<<24) / 2; des < want+minExtra {
		t.Errorf("contended ring %dns barely above formula %dns; expected ≥ +%dns", des, want, minExtra)
	}
}
