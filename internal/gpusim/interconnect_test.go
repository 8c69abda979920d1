package gpusim

import "testing"

func TestLinkSerializes(t *testing.T) {
	spec := LinkSpec{BW: 1e9, LatencyNS: 100} // 1 GB/s: 1 byte == 1ns
	l := NewLink("l", spec)
	s1, e1 := l.Transfer(0, 1000)
	if s1 != 0 || e1 != 1100 {
		t.Fatalf("first transfer [%d,%d), want [0,1100)", s1, e1)
	}
	// Second transfer ready at t=0 queues behind the first.
	s2, e2 := l.Transfer(0, 1000)
	if s2 != 1100 || e2 != 2200 {
		t.Fatalf("queued transfer [%d,%d), want [1100,2200)", s2, e2)
	}
	// A transfer ready after the horizon starts at its ready time.
	s3, e3 := l.Transfer(5000, 10)
	if s3 != 5000 || e3 != 5110 {
		t.Fatalf("late transfer [%d,%d), want [5000,5110)", s3, e3)
	}
	st := l.Stats(10000)
	if st.Transfers != 3 || st.Bytes != 2010 || st.BusyNS != 2310 {
		t.Fatalf("stats %+v", st)
	}
	if st.Util <= 0.2 || st.Util >= 0.25 {
		t.Fatalf("util %v out of range", st.Util)
	}
}

func TestTransferNSMatchesRingArithmetic(t *testing.T) {
	spec := LinkSpec{BW: 12.8e9, LatencyNS: 10000}
	bytes := int64(1 << 20)
	want := int64(float64(bytes)/spec.BW*1e9) + spec.LatencyNS
	if got := spec.TransferNS(bytes); got != want {
		t.Fatalf("TransferNS = %d, want %d", got, want)
	}
	if got := spec.TransferNS(0); got != spec.LatencyNS {
		t.Fatalf("zero-byte transfer = %d, want latency %d", got, spec.LatencyNS)
	}
}

func TestInterconnectTopology(t *testing.T) {
	intra := LinkSpec{BW: 50e9, LatencyNS: 5000}
	cross := LinkSpec{BW: 12.8e9, LatencyNS: 10000}

	// 8 GPUs, 4 per node: two nodes, GPUs 3 and 7 cross node boundaries.
	ic := NewInterconnect(8, 4, intra, cross)
	if len(ic.host) != 2 {
		t.Fatalf("nodes = %d, want 2", len(ic.host))
	}
	for g := 0; g < 8; g++ {
		wantNode := g / 4
		if ic.Node(g) != wantNode {
			t.Errorf("gpu %d on node %d, want %d", g, ic.Node(g), wantNode)
		}
	}
	for _, g := range []int{0, 1, 2, 4, 5, 6} {
		if ic.Egress(g) == ic.HostLink(g) {
			t.Errorf("gpu %d intra-node egress should be dedicated", g)
		}
		if ic.Egress(g).Spec != intra {
			t.Errorf("gpu %d egress spec %+v, want intra", g, ic.Egress(g).Spec)
		}
	}
	for _, g := range []int{3, 7} {
		if ic.Egress(g) != ic.HostLink(g) {
			t.Errorf("gpu %d cross-node egress should share the node host link", g)
		}
	}
	// 2 host links + 6 dedicated egress links.
	if got := len(ic.Links()); got != 8 {
		t.Fatalf("links = %d, want 8", got)
	}

	// Single node: every egress is dedicated; one host link.
	one := NewInterconnect(4, 0, intra, cross)
	if len(one.host) != 1 {
		t.Fatalf("single-node count = %d", len(one.host))
	}
	for g := 0; g < 4; g++ {
		if one.Egress(g) == one.HostLink(g) {
			t.Errorf("gpu %d egress should be dedicated on one node", g)
		}
	}
}

func TestInterconnectCrossNodeContention(t *testing.T) {
	intra := LinkSpec{BW: 50e9, LatencyNS: 5000}
	cross := LinkSpec{BW: 1e9, LatencyNS: 100}
	ic := NewInterconnect(2, 1, intra, cross) // two nodes, all hops cross PCIe
	// Offload traffic occupies node 0's host link first...
	_, e := ic.HostLink(0).Transfer(0, 1000)
	if e != 1100 {
		t.Fatalf("offload end %d", e)
	}
	// ...so GPU 0's ring send queues behind it on the same wire.
	s, _ := ic.Send(0, 0, 500)
	if s != 1100 {
		t.Fatalf("ring send start %d, want 1100 (behind offload)", s)
	}
	// GPU 1's send uses node 1's link: uncontended.
	s, _ = ic.Send(1, 0, 500)
	if s != 0 {
		t.Fatalf("node-1 send start %d, want 0", s)
	}
}
