package gpusim

import (
	"testing"
	"testing/quick"

	"dynnoffload/internal/graph"
	"dynnoffload/internal/tensor"
)

func TestPlatformPresets(t *testing.T) {
	rtx := RTXPlatform()
	if rtx.GPU.MemBytes != GiB(23) || rtx.CPUMemBytes != GiB(186) {
		t.Errorf("RTX platform sizes wrong: %+v", rtx)
	}
	a100 := A100Platform()
	if a100.GPU.MemBytes != GiB(80) || a100.NumGPUs != 4 || a100.CPUMemBytes != GiB(500) {
		t.Errorf("A100 platform wrong: %+v", a100)
	}
	capped := a100.WithMemory(GiB(10))
	if capped.GPU.MemBytes != GiB(10) {
		t.Error("WithMemory did not cap")
	}
	if a100.GPU.MemBytes != GiB(80) {
		t.Error("WithMemory mutated the original")
	}
}

func TestCostModelRoofline(t *testing.T) {
	cm := NewCostModel(A100Platform())
	var reg tensor.Registry
	small := reg.New("s", tensor.Activation, tensor.F32, 16)
	big := reg.New("b", tensor.Activation, tensor.F32, 1<<20)

	// Compute-bound op: huge FLOPs, small tensors.
	opC := graph.NewOp("matmul", 1e12, []*tensor.Meta{small}, []*tensor.Meta{small})
	// Memory-bound op: tiny FLOPs, big tensors.
	opM := graph.NewOp("copy", 10, []*tensor.Meta{big}, []*tensor.Meta{big})

	tc := cm.OpTime(opC)
	wantC := int64(1e12/(cm.Dev.FLOPS*cm.Dev.ComputeEff)*1e9) + cm.Dev.LaunchNS
	if absDiff(tc, wantC) > wantC/100 {
		t.Errorf("compute-bound time %d, want ~%d", tc, wantC)
	}
	tm := cm.OpTime(opM)
	wantM := int64(float64(big.Bytes())/(cm.Dev.MemBW*cm.Dev.BandwidthEff)*1e9) + cm.Dev.LaunchNS
	if absDiff(tm, wantM) > wantM/100 {
		t.Errorf("memory-bound time %d, want ~%d", tm, wantM)
	}
}

func TestXferTime(t *testing.T) {
	cm := NewCostModel(A100Platform())
	if cm.XferTime(0) != 0 {
		t.Error("zero bytes must be free")
	}
	one := cm.XferTime(1 << 20)
	two := cm.XferTime(2 << 20)
	if two <= one {
		t.Error("transfer time must grow with size")
	}
	// Latency dominates tiny transfers.
	if cm.XferTime(1) < cm.Link.LatencyNS {
		t.Error("latency floor missing")
	}
}

func TestStreamsOverlap(t *testing.T) {
	var s Streams
	end1 := s.Run(LaneCompute, 0, 100)
	end2 := s.Run(LaneH2D, 0, 80)
	if end1 != 100 || end2 != 80 {
		t.Errorf("independent streams must overlap: %d %d", end1, end2)
	}
	// Same-stream work serializes.
	end3 := s.Run(LaneCompute, 0, 50)
	if end3 != 150 {
		t.Errorf("same-stream must serialize: %d", end3)
	}
	// Dependency via ready time.
	end4 := s.Run(LaneCompute, end2+1000, 10)
	if end4 != end2+1010 {
		t.Errorf("ready time not honored: %d", end4)
	}
	if last := max(s.Compute, s.H2D, s.D2H); last != end4 {
		t.Errorf("latest completion = %d, want %d", last, end4)
	}
}

func TestMemPoolBasics(t *testing.T) {
	p := NewMemPool(100)
	if err := p.Add(1, 60); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(2, 50); err == nil {
		t.Fatal("over-capacity add must fail")
	}
	if err := p.Add(3, 40); err != nil {
		t.Fatal(err)
	}
	if p.used != 100 || p.Free() != 0 || p.Peak() != 100 {
		t.Errorf("used=%d free=%d peak=%d", p.used, p.Free(), p.Peak())
	}
	if got := p.Remove(1); got != 60 {
		t.Errorf("Remove returned %d", got)
	}
	if p.Resident(1) {
		t.Error("1 still resident after Remove")
	}
	if p.Peak() != 100 {
		t.Error("peak must persist")
	}
	// Re-adding an existing ID is a touch, not a double count.
	p.Add(3, 40)
	if p.used != 40 {
		t.Errorf("double-add double-counted: %d", p.used)
	}
}

func TestMemPoolVictims(t *testing.T) {
	p := NewMemPool(100)
	p.Add(1, 30)
	p.Add(2, 30)
	p.Add(3, 30)
	p.Touch(1) // 1 becomes MRU; LRU order: 2, 3, 1
	v := p.Victims(50)
	if len(v) != 2 || v[0] != 2 || v[1] != 3 {
		t.Errorf("victims = %v, want [2 3]", v)
	}
	// Short of need: every resident tensor, still in LRU order.
	v = p.Victims(1000)
	if len(v) != 3 || v[0] != 2 || v[1] != 3 || v[2] != 1 {
		t.Errorf("victims = %v, want [2 3 1]", v)
	}
}

func TestMemPoolInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		p := NewMemPool(1000)
		for _, op := range ops {
			id := int64(op % 16)
			if op%3 == 0 {
				p.Remove(id)
			} else {
				_ = p.Add(id, int64(op%7)*10)
			}
			if p.used < 0 || p.used > p.Capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageTable(t *testing.T) {
	pt := NewPageTable(10 * UVMPageSize)
	pt.Register(1, 4*UVMPageSize)
	pt.Register(2, 8*UVMPageSize)

	faulted, evicted := pt.Access(1)
	if faulted != 4 || evicted != 0 {
		t.Errorf("first access: faulted=%d evicted=%d", faulted, evicted)
	}
	// Second access is a hit.
	faulted, _ = pt.Access(1)
	if faulted != 0 {
		t.Errorf("hit faulted %d pages", faulted)
	}
	// Tensor 2 needs 8 pages; only 6 free -> evict tensor 1.
	faulted, evicted = pt.Access(2)
	if faulted != 8 || evicted != 4 {
		t.Errorf("pressure access: faulted=%d evicted=%d", faulted, evicted)
	}
	if pt.MissingPages(1) != 4 {
		t.Error("tensor 1 must be evicted")
	}
}

func TestPageTableAllocate(t *testing.T) {
	pt := NewPageTable(4 * UVMPageSize)
	pt.Register(1, 2*UVMPageSize)
	if ev := pt.Allocate(1); ev != 0 {
		t.Errorf("fresh allocate evicted %d", ev)
	}
	if pt.MissingPages(1) != 0 {
		t.Error("allocate must make pages resident")
	}
	if pt.used != 2*UVMPageSize {
		t.Errorf("used = %d", pt.used)
	}
}

func TestPageTableExplicitEvict(t *testing.T) {
	pt := NewPageTable(10 * UVMPageSize)
	pt.Register(1, 3*UVMPageSize)
	pt.Access(1)
	if n := pt.Evict(1); n != 3 {
		t.Errorf("Evict returned %d", n)
	}
	if pt.used != 0 {
		t.Error("pages leaked after evict")
	}
	if pt.Evict(1) != 0 {
		t.Error("double evict must be a no-op")
	}
}

func TestPagesOf(t *testing.T) {
	if PagesOf(0) != 0 || PagesOf(1) != 1 || PagesOf(UVMPageSize) != 1 || PagesOf(UVMPageSize+1) != 2 {
		t.Error("PagesOf rounding wrong")
	}
}

func TestBreakdown(t *testing.T) {
	a := Breakdown{ComputeNS: 100, ExposedXferNS: 50, PeakGPUBytes: 10}
	b := Breakdown{ComputeNS: 10, RematNS: 5, PeakGPUBytes: 20}
	c := a.Add(b)
	if c.ComputeNS != 110 || c.RematNS != 5 || c.PeakGPUBytes != 20 {
		t.Errorf("Add wrong: %+v", c)
	}
	if c.TotalNS() != 110+50+5 {
		t.Errorf("TotalNS = %d", c.TotalNS())
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Run is RunSpan returning only the completion time.
func (s *Streams) Run(l Lane, ready, dur int64) int64 {
	_, end := s.RunSpan(l, ready, dur)
	return end
}
