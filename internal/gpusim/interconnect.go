package gpusim

import "fmt"

// Link is one interconnect wire modeled as a DES resource: a busy-until
// horizon on the cluster's virtual clock. Transfers serialize — a message
// starts at max(readyNS, busy) and holds the link for latency plus
// bytes/bandwidth — so contention between offload (host) traffic and
// collective (ring) traffic falls out of the schedule instead of a formula.
type Link struct {
	Name string
	Spec LinkSpec

	busyNS    int64 // horizon: when the link next frees
	occNS     int64 // total occupied time across the run
	bytes     int64
	transfers int64
}

// NewLink builds an idle link.
func NewLink(name string, spec LinkSpec) *Link {
	return &Link{Name: name, Spec: spec}
}

// TransferNS is the serialized duration of moving n bytes over a link with
// this spec: wire latency plus bandwidth time. It is the same arithmetic the
// closed-form ring model uses per hop, so an uncontended DES schedule and the
// formula agree to integer rounding.
func (s LinkSpec) TransferNS(bytes int64) int64 {
	if bytes < 0 {
		bytes = 0
	}
	return int64(float64(bytes)/s.BW*1e9) + s.LatencyNS
}

// Occupy reserves the link for durNS starting no earlier than readyNS,
// queueing behind whatever is already scheduled. It returns the granted
// [start, end) window and advances the busy horizon to end.
func (l *Link) Occupy(readyNS, durNS int64) (startNS, endNS int64) {
	if durNS < 0 {
		durNS = 0
	}
	start := readyNS
	if l.busyNS > start {
		start = l.busyNS
	}
	end := start + durNS
	l.busyNS = end
	l.occNS += durNS
	return start, end
}

// Transfer schedules one bytes-long message on the link and returns its
// granted window.
func (l *Link) Transfer(readyNS, bytes int64) (startNS, endNS int64) {
	start, end := l.Occupy(readyNS, l.Spec.TransferNS(bytes))
	l.bytes += bytes
	l.transfers++
	return start, end
}

// Book reserves the link for an externally-timed occupancy of durNS carrying
// bytes — the cluster runtime uses it to lay a sample's already-simulated
// offload traffic onto the shared host link, where ring sends queue behind
// it.
func (l *Link) Book(readyNS, durNS, bytes int64) (startNS, endNS int64) {
	start, end := l.Occupy(readyNS, durNS)
	l.bytes += bytes
	l.transfers++
	return start, end
}

// LinkStats summarizes one link's traffic over a run.
type LinkStats struct {
	Name      string
	Transfers int64
	Bytes     int64
	BusyNS    int64
	// Util is BusyNS over the observation span handed to Stats.
	Util float64
}

// Stats reduces the link's counters; spanNS is the run's makespan (<= 0
// leaves Util zero).
func (l *Link) Stats(spanNS int64) LinkStats {
	st := LinkStats{Name: l.Name, Transfers: l.transfers, Bytes: l.bytes, BusyNS: l.occNS}
	if spanNS > 0 {
		st.Util = float64(l.occNS) / float64(spanNS)
	}
	return st
}

// Interconnect is the cluster's wiring: GPUs packed gpusPerNode to a node,
// intra-node neighbors joined by dedicated point-to-point links (NVLink
// class) and each node owning one shared host/PCIe link. Ring traffic that
// crosses a node boundary falls back to the sender's host link — the same
// resource layer-offload traffic occupies — which is exactly where the
// closed-form model stops and joint DES scheduling starts.
type Interconnect struct {
	gpusPerNode int
	host        []*Link // per node
	egress      []*Link // per GPU, to its ring successor
}

// NewInterconnect wires gpus GPUs with gpusPerNode per node. intra is the
// in-node point-to-point spec, cross the host/PCIe spec shared per node.
// gpusPerNode <= 0 puts every GPU on one node.
func NewInterconnect(gpus, gpusPerNode int, intra, cross LinkSpec) *Interconnect {
	if gpus < 1 {
		gpus = 1
	}
	if gpusPerNode <= 0 {
		gpusPerNode = gpus
	}
	ic := &Interconnect{gpusPerNode: gpusPerNode}
	nodes := (gpus + gpusPerNode - 1) / gpusPerNode
	for n := 0; n < nodes; n++ {
		ic.host = append(ic.host, NewLink(fmt.Sprintf("link/pcie-node%d", n), cross))
	}
	ic.egress = make([]*Link, gpus)
	for g := 0; g < gpus; g++ {
		next := (g + 1) % gpus
		if gpus > 1 && ic.Node(g) == ic.Node(next) {
			ic.egress[g] = NewLink(fmt.Sprintf("link/intra-gpu%d", g), intra)
		} else {
			// Cross-node hop (or the single-GPU degenerate ring): the send
			// shares the sender node's host link with offload traffic.
			ic.egress[g] = ic.host[ic.Node(g)]
		}
	}
	return ic
}

// Node maps a GPU index to its node index.
func (ic *Interconnect) Node(gpu int) int { return gpu / ic.gpusPerNode }

// HostLink is the shared host/PCIe link of the GPU's node — the resource
// layer-offload (H2D/D2H) traffic occupies.
func (ic *Interconnect) HostLink(gpu int) *Link { return ic.host[ic.Node(gpu)] }

// Egress is the link GPU g sends on toward its ring successor: a dedicated
// intra-node link, or the node's host link for cross-node hops.
func (ic *Interconnect) Egress(gpu int) *Link { return ic.egress[gpu] }

// Send schedules one ring message from GPU g to its successor.
func (ic *Interconnect) Send(gpu int, readyNS, bytes int64) (startNS, endNS int64) {
	return ic.egress[gpu].Transfer(readyNS, bytes)
}

// Links returns every distinct link in a fixed order: host links by node,
// then dedicated egress links by GPU.
func (ic *Interconnect) Links() []*Link {
	out := append([]*Link(nil), ic.host...)
	for g, l := range ic.egress {
		if l == ic.host[ic.Node(g)] {
			continue
		}
		out = append(out, l)
	}
	return out
}
