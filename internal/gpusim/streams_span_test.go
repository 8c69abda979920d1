package gpusim

import (
	"errors"
	"testing"

	"dynnoffload/internal/faults"
)

func TestRunSpanInterval(t *testing.T) {
	s := NewStreams()
	start, end := s.RunSpan(LaneCompute, 0, 100)
	if start != 0 || end != 100 {
		t.Errorf("first span = [%d,%d)", start, end)
	}
	// The lane is busy until 100, so ready=50 starts late.
	start, end = s.RunSpan(LaneCompute, 50, 30)
	if start != 100 || end != 130 {
		t.Errorf("queued span = [%d,%d), want [100,130)", start, end)
	}
	// A ready time past busy-until opens an idle gap.
	start, end = s.RunSpan(LaneCompute, 500, 10)
	if start != 500 || end != 510 {
		t.Errorf("gapped span = [%d,%d), want [500,510)", start, end)
	}
	if s.Compute != 510 {
		t.Errorf("compute busy-until = %d", s.Compute)
	}
	// Lanes are independent queues.
	if s.H2D != 0 || s.D2H != 0 {
		t.Error("RunSpan leaked into other lanes")
	}
	if got := s.Run(LaneH2D, 0, 40); got != 40 {
		t.Errorf("Run end = %d", got)
	}
}

func TestTrySpanFaultFree(t *testing.T) {
	// Without a fault stream TrySpan must be exactly RunSpan.
	a, b := NewStreams(), NewStreams()
	s1, e1, err := a.TrySpan(LaneH2D, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	s2, e2 := b.RunSpan(LaneH2D, 10, 100)
	if s1 != s2 || e1 != e2 {
		t.Errorf("TrySpan [%d,%d) != RunSpan [%d,%d)", s1, e1, s2, e2)
	}
}

// At rate 1 every transfer faults; the flavor (stall or abort) is drawn per
// site, so the tests scan stream scopes until each flavor appears.
func TestTrySpanFaultIntervals(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 7, Rate: 1})
	var sawAbort, sawStall bool
	for scope := uint64(0); scope < 64 && !(sawAbort && sawStall); scope++ {
		s := NewStreams(WithFaultStream(inj.Stream(scope)))
		start, end, err := s.TrySpan(LaneH2D, 0, 100)
		if errors.Is(err, ErrTransferAborted) {
			// The abort occupies the wasted mid-flight half of the transfer.
			if start != 0 || end != 50 {
				t.Fatalf("aborted span = [%d,%d), want [0,50)", start, end)
			}
			if s.H2D != 50 {
				t.Fatalf("lane busy-until = %d after abort", s.H2D)
			}
			sawAbort = true
		} else if err != nil {
			t.Fatal(err)
		} else {
			// A stall stretches the span by the configured factor (default 4).
			if start != 0 || end != 400 {
				t.Fatalf("stalled span = [%d,%d), want [0,400)", start, end)
			}
			sawStall = true
		}
	}
	if !sawAbort || !sawStall {
		t.Fatalf("64 scopes at rate 1: abort=%v stall=%v — both flavors expected", sawAbort, sawStall)
	}
}
