// Package distributed is the cluster DES runtime behind the paper's Fig 10
// scalability study: N offload engines, one per simulated GPU, advance on a
// shared virtual clock and synchronize gradients with a ring all-reduce whose
// per-step sends are scheduled events on a modeled interconnect — dedicated
// intra-node links between ring neighbors, a shared per-node host/PCIe link
// for cross-node hops. Each GPU's layer-offload (H2D/D2H) traffic is booked
// on that same host link, so offload pressure and gradient communication
// contend for the wire on one timeline instead of being summed by a formula.
//
// The runtime inherits the repo's determinism contract: GPUs are stepped in
// index order, links are busy-until resources on simulated nanoseconds, and
// every engine dispatch goes through the three-phase pipeline — identical
// (seed, config) inputs replay bit-identical cluster reports at any worker
// count, fault-free or faulted.
//
// RingAllReduceNS, the paper's closed form, is kept as an oracle: on an
// uncontended interconnect the scheduled ring agrees with it to integer
// rounding (see oracle_test.go), and under injected PCIe contention it is
// strictly slower — which is exactly what the closed form cannot express.
package distributed

import (
	"errors"
	"fmt"

	"dynnoffload/internal/core"
	"dynnoffload/internal/gpusim"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// Topology describes the cluster wiring.
type Topology struct {
	// GPUsPerNode packs GPUs onto nodes; <= 0 puts every GPU on one node.
	GPUsPerNode int
	// Intra is the in-node point-to-point link spec (NVLink class).
	Intra gpusim.LinkSpec
	// Cross is the per-node shared host/PCIe link spec, used by cross-node
	// ring hops and by every GPU's offload traffic.
	Cross gpusim.LinkSpec
}

// DefaultTopology derives the wiring from a platform: the platform's
// inter-GPU link inside a node, its PCIe link across nodes.
func DefaultTopology(p gpusim.Platform) Topology {
	return Topology{GPUsPerNode: p.NumGPUs, Intra: p.InterGPU, Cross: p.Link}
}

// Config describes the cluster run.
type Config struct {
	// GPUs is the data-parallel width; one engine per GPU.
	GPUs int
	// Topology is the interconnect wiring; zero links error out — use
	// DefaultTopology for a platform-derived default.
	Topology Topology
	// GradBytes is the gradient volume all-reduced per step.
	GradBytes int64
	// Workers is the engine fan-out per dispatch; <= 0 means GOMAXPROCS.
	// Results are identical at any value.
	Workers int
	// Tracer, when non-nil, collects per-sample engine spans and per-link
	// allreduce/offload spans on the shared cluster clock. Build it with
	// obsv.WithAbsoluteTime — dispatches on different GPUs genuinely overlap.
	Tracer *obsv.Tracer
}

// Cluster is the assembled runtime.
type Cluster struct {
	cfg Config
	eng []*core.Engine
	ic  *gpusim.Interconnect
}

// ErrBadCluster covers invalid cluster configurations.
var ErrBadCluster = errors.New("distributed: invalid cluster config")

// New validates the config and wires the interconnect. engines must hold one
// engine per GPU; they carry per-GPU state (the mis-prediction cache), so
// callers build them fresh per run for replayable results.
func New(cfg Config, engines []*core.Engine) (*Cluster, error) {
	if cfg.GPUs < 1 {
		return nil, fmt.Errorf("%w: GPUs = %d", ErrBadCluster, cfg.GPUs)
	}
	if len(engines) != cfg.GPUs {
		return nil, fmt.Errorf("%w: %d engines for %d GPUs", ErrBadCluster, len(engines), cfg.GPUs)
	}
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("%w: engine %d is nil", ErrBadCluster, i)
		}
	}
	if cfg.Topology.Intra.BW <= 0 || cfg.Topology.Cross.BW <= 0 {
		return nil, fmt.Errorf("%w: topology needs positive link bandwidths", ErrBadCluster)
	}
	ic := gpusim.NewInterconnect(cfg.GPUs, cfg.Topology.GPUsPerNode, cfg.Topology.Intra, cfg.Topology.Cross)
	return &Cluster{cfg: cfg, eng: append([]*core.Engine(nil), engines...), ic: ic}, nil
}

// EpochReport is one cluster epoch's outcome.
type EpochReport struct {
	GPUs  int
	Steps int
	// Report merges every GPU's sample results (commutative sums, like the
	// single-engine epoch aggregate).
	Report core.EpochReport
	// PerGPU holds each GPU's own aggregate.
	PerGPU []core.EpochReport
	// MakespanNS is the shared-clock finish time of the slowest GPU.
	MakespanNS int64
	// AllReduceNS is the exposed all-reduce time summed over steps: how much
	// later the slowest GPU finished synchronization than it finished compute.
	AllReduceNS int64
	// CommBytes is the total gradient volume moved by ring sends.
	CommBytes int64
	// Links reports per-link traffic and utilization over the makespan.
	Links []gpusim.LinkStats
	// ThroughputPerSec is samples per simulated second across the cluster.
	ThroughputPerSec float64
	// Attribution decomposes the cluster's busy time into the serving
	// taxonomy's causes: per-sample device components summed over every GPU
	// (compute, exposed transfer, remat, fault) plus the epoch's exposed
	// all-reduce interference. This is the cluster-busy decomposition, not a
	// makespan decomposition — GPUs overlap on the shared clock.
	Attribution obsv.AttributionComponents
}

// TrainEpoch shards examples round-robin across the GPUs and runs the epoch
// as lock-stepped data-parallel steps on the shared clock: each GPU simulates
// its sample (its offload traffic booked on the node's host link), then the
// gradient ring all-reduce runs as scheduled per-step sends. A GPU's clock
// advances to the end of its last ring transfer; the next step's dispatch
// starts there.
func (c *Cluster) TrainEpoch(examples []*pilot.Example) (*EpochReport, error) {
	g := c.cfg.GPUs
	rep := &EpochReport{GPUs: g, PerGPU: make([]core.EpochReport, g)}
	n := len(examples)
	if n == 0 {
		return rep, nil
	}
	clock := make([]int64, g)
	ready := make([]int64, g)
	steps := (n + g - 1) / g
	rep.Steps = steps
	for step := 0; step < steps; step++ {
		copy(ready, clock)
		for k := 0; k < g; k++ {
			idx := step*g + k
			if idx >= n {
				continue
			}
			results, err := c.eng[k].RunBatch(examples[idx:idx+1], core.EpochOptions{
				Workers:     c.cfg.Workers,
				Tracer:      c.cfg.Tracer,
				TraceBase:   idx,
				ClockBaseNS: clock[k],
			})
			if err != nil {
				return nil, fmt.Errorf("distributed: gpu %d step %d: %w", k, step, err)
			}
			r := results[0]
			rep.Report.Add(r)
			rep.PerGPU[k].Add(r)
			rdy := clock[k] + r.Breakdown.TotalNS()
			// Book the sample's offload traffic on the node's shared host
			// link. Its lane time fits inside the device window, so the only
			// feedback is genuine contention: if another GPU's traffic (or a
			// cross-node ring send) holds the wire, this GPU's step completes
			// later by the queuing delay.
			xferNS := r.Breakdown.ExposedXferNS + r.Breakdown.OverlapXferNS
			xferBytes := r.Breakdown.H2DBytes + r.Breakdown.D2HBytes
			// Tag the sample's trace with the GPU that executed it, so
			// overlapping per-GPU work stays attributable on the shared
			// cluster clock (nil-safe with tracing off).
			st := c.cfg.Tracer.At(idx)
			st.SetReplica(k)
			if xferNS > 0 {
				host := c.ic.HostLink(k)
				start, _ := host.Book(clock[k], xferNS, xferBytes)
				rdy += start - clock[k]
				st.Span(obsv.SpanOffload, host.Name, -1, start-clock[k], xferNS, xferBytes)
			}
			ready[k] = rdy
		}
		done, moved := c.ringStep(ready, step, n)
		rep.CommBytes += moved
		var readyMax, doneMax int64
		for k := 0; k < g; k++ {
			clock[k] = done[k]
			if ready[k] > readyMax {
				readyMax = ready[k]
			}
			if done[k] > doneMax {
				doneMax = done[k]
			}
		}
		if d := doneMax - readyMax; d > 0 {
			rep.AllReduceNS += d
		}
	}
	for k := 0; k < g; k++ {
		if clock[k] > rep.MakespanNS {
			rep.MakespanNS = clock[k]
		}
	}
	for _, l := range c.ic.Links() {
		rep.Links = append(rep.Links, l.Stats(rep.MakespanNS))
	}
	if rep.MakespanNS > 0 {
		rep.ThroughputPerSec = float64(rep.Report.Samples) / (float64(rep.MakespanNS) / 1e9)
	}
	bd := rep.Report.Breakdown
	rep.Attribution = obsv.AttributionComponents{
		ComputeNS:   bd.ComputeNS,
		ExposedNS:   bd.ExposedXferNS,
		RematNS:     bd.RematNS,
		FaultNS:     bd.FaultNS,
		AllReduceNS: rep.AllReduceNS,
	}
	return rep, nil
}

// ringStep schedules one gradient all-reduce on the interconnect and returns
// each GPU's synchronization-complete time plus the bytes moved. Trace spans
// land in a per-step slot past the sample indices (n + step).
func (c *Cluster) ringStep(ready []int64, step, n int) ([]int64, int64) {
	var st *obsv.SampleTrace
	if c.cfg.Tracer != nil && len(ready) > 1 {
		st = c.cfg.Tracer.Sample(n + step)
	}
	done, sends := simulateRing(c.ic, ready, c.cfg.GradBytes)
	var moved int64
	for _, s := range sends {
		moved += s.bytes
		if st != nil {
			st.Span(obsv.SpanAllReduce, s.link, s.ringStep, s.startNS, s.endNS-s.startNS, s.bytes)
		}
	}
	return done, moved
}

// ringSend is one scheduled hop of the ring.
type ringSend struct {
	from, to       int
	ringStep       int
	startNS, endNS int64
	bytes          int64
	link           string
}

// simulateRing plays a ring all-reduce of bytes across the interconnect's
// GPUs as discrete events: 2(g-1) steps, each GPU sending a 1/g chunk to its
// successor on its egress link. A GPU enters step s+1 once it has both sent
// and received its step-s chunks; sends are issued in GPU-index order, so
// contention on shared links resolves deterministically.
func simulateRing(ic *gpusim.Interconnect, ready []int64, bytes int64) ([]int64, []ringSend) {
	g := len(ready)
	done := append([]int64(nil), ready...)
	if g <= 1 {
		return done, nil
	}
	chunk := bytes / int64(g)
	if bytes > 0 && chunk < 1 {
		chunk = 1
	}
	steps := 2 * (g - 1)
	sendEnd := make([]int64, g)
	recvEnd := make([]int64, g)
	var sends []ringSend
	for s := 0; s < steps; s++ {
		for i := 0; i < g; i++ {
			dst := (i + 1) % g
			start, end := ic.Send(i, done[i], chunk)
			sendEnd[i] = end
			recvEnd[dst] = end
			sends = append(sends, ringSend{
				from: i, to: dst, ringStep: s,
				startNS: start, endNS: end, bytes: chunk,
				link: ic.Egress(i).Name,
			})
		}
		for i := 0; i < g; i++ {
			done[i] = sendEnd[i]
			if recvEnd[i] > done[i] {
				done[i] = recvEnd[i]
			}
		}
	}
	return done, sends
}

// RingAllReduceNS is the paper's closed form for a ring all-reduce of n bytes
// across g GPUs on one uncontended link: 2(g-1)/g of the data crosses each
// link, plus per-step latency. Kept as the oracle the DES schedule is checked
// against — they agree to integer rounding when nothing else holds the links.
func RingAllReduceNS(link gpusim.LinkSpec, bytes int64, gpus int) int64 {
	if gpus <= 1 {
		return 0
	}
	steps := int64(2 * (gpus - 1))
	volume := float64(2*(gpus-1)) / float64(gpus) * float64(bytes)
	return int64(volume/link.BW*1e9) + steps*link.LatencyNS
}
