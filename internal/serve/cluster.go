package serve

import (
	"errors"
	"fmt"
	"math"

	"dynnoffload/internal/core"
	"dynnoffload/internal/obsv"
	"dynnoffload/internal/online"
	"dynnoffload/internal/pilot"
)

// DefaultScaleWindow is the dispatch-wait window the elastic scaler averages
// over when ClusterConfig.ScaleWindow is zero.
const DefaultScaleWindow = 16

// ClusterConfig extends the serving config with replica placement and
// elastic scaling.
type ClusterConfig struct {
	Config
	// MinReplicas floors the active set when elastic scaling is on; <= 0
	// means 1. Ignored when ScaleUpQueueNS is zero (all replicas active).
	MinReplicas int
	// ScaleUpQueueNS turns on elastic scaling: starting from MinReplicas,
	// one more replica activates whenever the windowed mean queue wait of
	// dispatched requests exceeds this threshold. 0 keeps every replica
	// active for the whole run.
	ScaleUpQueueNS int64
	// ScaleWindow is how many recent dispatch waits the scaler averages;
	// <= 0 means DefaultScaleWindow.
	ScaleWindow int
	// ScaleDownIdleNS retires the highest-indexed active replica (beyond the
	// floor) once it has sat idle this long. 0 disables scale-down.
	ScaleDownIdleNS int64
}

// ClusterBackend is what the serving event loop runs requests against: one
// engine per GPU replica sharing a request pool. A batch on a replica
// reserves at most its engine platform's device memory.
type ClusterBackend struct {
	Engines []*core.Engine
	// Pool is the request population, shared by all replicas; each arrival
	// draws one example from it (with replacement) under the tenant's seed.
	Pool []*pilot.Example
}

// Placement records where a tenant is homed and how its completions landed.
// Homes are assigned round-robin by tenant index; the scheduler prefers a
// request's home replica when several replicas are free, so quota-heavy
// tenants mostly stay on their own replica.
type Placement struct {
	Tenant string
	Home   int
	// Requests is the tenant's completed request count.
	Requests int64
	// HomeServed is how many of those completed on the home replica.
	HomeServed int64
}

// ReplicaStats summarizes one replica's share of the run.
type ReplicaStats struct {
	Replica    int
	Dispatches int64
	Completed  int64
	BusyNS     int64
	// Util is BusyNS over the cluster makespan.
	Util float64
}

// ScaleEvent is one elastic-scaling transition.
type ScaleEvent struct {
	AtNS   int64
	Active int
	Reason string // "scale-up" or "scale-down"
}

// ClusterReport extends the serving report with placement, per-replica, and
// scaling outcomes. Total/Tenants aggregate across every replica.
type ClusterReport struct {
	Report
	Placements  []Placement
	Replicas    []ReplicaStats
	ScaleEvents []ScaleEvent
	// PeakActive is the largest concurrently active replica count.
	PeakActive int
}

// RunCluster plays cfg's request streams against a pool of GPU replicas on
// one simulated clock, one replica per backend engine. It is the only
// serving entry point and event loop. The loop is serial and deterministic:
// arrivals admit through per-tenant gates into one shared queue; each
// dispatch picks a replica — the queue front's home if it is free, otherwise
// the fewest-dispatches (lowest-index) free active replica — forms a
// continuous batch within that replica's own device memory, and
// occupies the replica for the batch's simulated service time. Replicas
// overlap in virtual time; the event loop itself never races. While every
// active replica is busy, arrivals wait unadmitted until the earliest
// release. The online learner observes each batch when it finishes on the
// simulated clock. With ScaleUpQueueNS set, the active set grows from
// MinReplicas under sustained queue-delay pressure and shrinks on idleness.
func RunCluster(b *ClusterBackend, cfg ClusterConfig) (*ClusterReport, error) {
	if len(cfg.Tenants) == 0 {
		return nil, ErrNoTenants
	}
	if b == nil || len(b.Engines) == 0 || len(b.Pool) == 0 {
		return nil, errors.New("serve: cluster backend needs engines and a non-empty pool")
	}
	for i, e := range b.Engines {
		if e == nil {
			return nil, fmt.Errorf("serve: cluster engine %d is nil", i)
		}
	}
	names := make(map[string]bool, len(cfg.Tenants))
	for _, tc := range cfg.Tenants {
		if names[tc.Name] {
			return nil, fmt.Errorf("serve: duplicate tenant name %q", tc.Name)
		}
		names[tc.Name] = true
	}
	replicas := len(b.Engines)
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	starveAge := cfg.StarvationAgeNS
	if starveAge == 0 {
		var maxSLO int64
		for _, tc := range cfg.Tenants {
			if tc.SLONS > maxSLO {
				maxSLO = tc.SLONS
			}
		}
		starveAge = 4 * maxSLO
	}
	if starveAge <= 0 {
		starveAge = math.MaxInt64
	}

	// Per-replica capacities; generate caps requests against the smallest
	// replica, so an admitted request is schedulable anywhere.
	capBytes := make([]int64, replicas)
	minMem := int64(math.MaxInt64)
	for r, e := range b.Engines {
		capBytes[r] = e.Cfg.Platform.GPU.MemBytes
		minMem = min(minMem, capBytes[r])
	}

	arrivals, err := generate(cfg.Config, b.Pool, minMem)
	if err != nil {
		return nil, err
	}

	rec := obsv.NewRecorder("serve", cfg.Workers, nil)
	cfg.Registry.Register(rec)
	tenantRecs := make([]*obsv.Recorder, len(cfg.Tenants))
	for t, tc := range cfg.Tenants {
		tenantRecs[t] = obsv.NewRecorder("serve/"+tc.Name, cfg.Workers, nil)
		cfg.Registry.Register(tenantRecs[t])
	}

	minActive := 1
	if cfg.MinReplicas > 0 {
		minActive = cfg.MinReplicas
	}
	if minActive > replicas {
		minActive = replicas
	}
	scaleWindow := cfg.ScaleWindow
	if scaleWindow <= 0 {
		scaleWindow = DefaultScaleWindow
	}

	var learner *online.Learner
	if cfg.Online.Enabled {
		// The replicas share one pilot (the facade hands every engine the
		// same trained instance), so the learner adapts one shared clone and
		// every replica's dispatches resolve through it.
		learner, err = online.New(cfg.Online, b.Engines[0].Pilot, len(cfg.Tenants))
		if err != nil {
			return nil, err
		}
	}

	flights := make([]*obsv.FlightRecorder, replicas)
	for r := range flights {
		flights[r] = obsv.NewFlightRecorder(r, cfg.Flight)
	}
	s := &clusterLoop{
		cfg: cfg, backend: b, capBytes: capBytes,
		maxBatch: maxBatch, starveAge: starveAge,
		rec: rec, tenantRecs: tenantRecs,
		acc:         make([]tenantAcc, len(cfg.Tenants)),
		homes:       make([]int, len(cfg.Tenants)),
		free:        make([]int64, replicas),
		dispatches:  make([]int64, replicas),
		completed:   make([]int64, replicas),
		busyNS:      make([]int64, replicas),
		homeServed:  make([]int64, len(cfg.Tenants)),
		held:        make([]int64, len(cfg.Tenants)),
		tenantPeak:  make([]int64, len(cfg.Tenants)),
		flights:     flights,
		active:      replicas,
		minActive:   minActive,
		scaleWindow: scaleWindow,
		learner:     learner,
	}
	if learner != nil {
		s.inflight = make([]inflight, replicas)
	}
	if cfg.ScaleUpQueueNS > 0 {
		s.active = minActive
	}
	s.peakActive = s.active
	for t := range s.acc {
		mq := cfg.Tenants[t].MaxQueue
		if mq <= 0 {
			mq = DefaultMaxQueue
		}
		s.acc[t].maxQueue = mq
		s.homes[t] = t % replicas
	}
	if err := s.run(arrivals); err != nil {
		return nil, wrapFlightError(err, s.flights)
	}
	return s.report(), nil
}

// clusterLoop is the serving event loop's state.
type clusterLoop struct {
	cfg        ClusterConfig
	backend    *ClusterBackend
	capBytes   []int64 // replica -> device memory
	maxBatch   int
	starveAge  int64
	rec        *obsv.Recorder
	tenantRecs []*obsv.Recorder

	now     int64
	queued  []*request
	acc     []tenantAcc
	batches int64
	slots   slotCounter

	homes      []int   // tenant -> home replica
	free       []int64 // replica busy-until
	dispatches []int64
	completed  []int64
	busyNS     []int64
	homeServed []int64
	held       []int64                // tenant -> bytes in the forming batch (selectBatch scratch)
	peak       int64                  // most bytes any one batch reserved
	tenantPeak []int64                // tenant -> most bytes it reserved in one batch
	flights    []*obsv.FlightRecorder // per replica; nil entries when disabled
	makespanNS int64

	active      int
	minActive   int
	peakActive  int
	scaleWindow int
	waits       []int64 // recent dispatch queue waits (scale-up signal)
	events      []ScaleEvent

	// exs is the dispatch scratch buffer, reused across batches: RunBatch
	// never retains its argument slice past the call, and a sweep replays
	// thousands of dispatches, so one buffer serves the whole run.
	exs []*pilot.Example
	// pilots mirrors exs when the learner is active: per-request pilot
	// overrides (tenant adapter or refined shared pilot) for RunBatch.
	pilots []*pilot.Pilot
	// learner is the online feedback loop; nil when Config.Online is off.
	learner *online.Learner
	// inflight holds each replica's last batch until the learner has seen
	// it; nil without a learner.
	inflight []inflight
}

// inflight is a dispatched batch waiting for the learner. A replica runs one
// batch at a time, and its next dispatch comes only after this one is
// learned, so one slot per replica suffices.
type inflight struct {
	batch   []*request // nil when the slot is empty
	results []core.SampleResult
	doneNS  int64
	seq     int64 // dispatch order, breaking ties between equal doneNS
}

// run consumes the sorted arrival stream. Each iteration first lets the
// learner see every batch finished by now, then admits, then dispatches.
func (s *clusterLoop) run(arrivals []*request) error {
	next := 0
	for {
		if err := s.learnFinished(); err != nil {
			return err
		}
		pending := s.nextFinish()
		if next == len(arrivals) && len(s.queued) == 0 && pending < 0 {
			return nil
		}
		if len(s.queued) == 0 {
			// Idle: jump to the next arrival, or to an earlier completion
			// the learner must see first — but never admit while every
			// active replica is busy.
			t := int64(math.MaxInt64)
			if next < len(arrivals) {
				t = arrivals[next].arrivalNS
			}
			if pending >= 0 && s.inflight[pending].doneNS < t {
				t = s.inflight[pending].doneNS
			}
			if release := s.free[s.earliestFree()]; release > t {
				t = release
			}
			if t > s.now {
				s.now = t
				continue
			}
		}
		for next < len(arrivals) && arrivals[next].arrivalNS <= s.now {
			s.admit(arrivals[next])
			next++
		}
		if len(s.queued) == 0 {
			continue
		}
		s.scaleDown()
		r := s.pickReplica()
		if s.free[r] > s.now {
			// Every active replica is busy. Nothing can dispatch before the
			// earliest release, and admission waits for it too, so a
			// finished batch is learned before later arrivals are admitted.
			s.now = s.free[r]
			continue
		}
		if err := s.dispatch(r); err != nil {
			return err
		}
	}
}

// admit applies the two admission gates: a request that can never fit its
// tenant's quota is shed immediately; a request arriving at a full tenant
// queue is shed as backpressure. (generate already caps every request at
// half the smallest replica's memory, so the device always has room.)
func (s *clusterLoop) admit(r *request) {
	a := &s.acc[r.tenant]
	a.arrivals++
	name := s.cfg.Tenants[r.tenant].Name
	// Admission happens before placement, so its events land on the tenant's
	// home replica recorder — the replica most likely to serve the request.
	flight := s.flights[s.homes[r.tenant]]
	quota := s.cfg.Tenants[r.tenant].QuotaBytes
	if quota > 0 && r.needBytes > quota {
		a.quotaShed++
		recordAdmission(flight, obsv.FlightQuotaShed, r, name)
		return
	}
	if a.inQueue >= a.maxQueue {
		a.shed++
		recordAdmission(flight, obsv.FlightShed, r, name)
		return
	}
	a.inQueue++
	s.queued = append(s.queued, r)
	recordAdmission(flight, obsv.FlightAdmit, r, name)
}

// earliestFree returns the active replica released first (lowest index on
// ties).
func (s *clusterLoop) earliestFree() int {
	earliest := 0
	for r := 1; r < s.active; r++ {
		if s.free[r] < s.free[earliest] {
			earliest = r
		}
	}
	return earliest
}

// pickReplica chooses where the next batch runs: among replicas free now,
// the queue front's home replica if it is one of them, else the one with
// the fewest dispatches (lowest index on ties). If none is free it returns
// the earliest-free active replica so the caller can advance the clock.
func (s *clusterLoop) pickReplica() int {
	if earliest := s.earliestFree(); s.free[earliest] > s.now {
		return earliest
	}
	if home := s.homes[s.queued[0].tenant]; home < s.active && s.free[home] <= s.now {
		return home
	}
	pick := -1
	for r := 0; r < s.active; r++ {
		if s.free[r] > s.now {
			continue
		}
		if pick < 0 || s.dispatches[r] < s.dispatches[pick] {
			pick = r
		}
	}
	return pick
}

// dispatch forms one continuous batch within replica r's memory and
// occupies the replica for its service time.
func (s *clusterLoop) dispatch(r int) error {
	var (
		batch []*request
		total int64
	)
	batch, s.queued, total = selectBatch(s.queued, s.now, s.starveAge, s.maxBatch, s.capBytes[r], s.cfg.Tenants, s.held)
	if len(batch) == 0 {
		// Unreachable: generate caps needBytes at half the smallest
		// replica's memory and admit sheds what exceeds its tenant's quota,
		// so the queue front always fits — but fail loudly.
		return fmt.Errorf("serve: no request schedulable at t=%dns with %d queued", s.now, len(s.queued))
	}
	s.peak = max(s.peak, total)
	for t, b := range s.held {
		s.tenantPeak[t] = max(s.tenantPeak[t], b)
	}

	s.exs = s.exs[:0]
	for _, req := range batch {
		s.exs = append(s.exs, req.ex)
	}
	s.pilots = s.pilots[:0]
	if s.learner != nil {
		for _, req := range batch {
			s.pilots = append(s.pilots, s.learner.PilotFor(req.tenant))
		}
	}
	base := s.slots.take(len(batch))
	eng := s.backend.Engines[r]
	results, err := eng.RunBatch(s.exs, core.EpochOptions{
		Workers:     s.cfg.Workers,
		Recorder:    s.rec,
		Tracer:      s.cfg.Tracer,
		TraceBase:   base,
		ClockBaseNS: s.now,
		Pilots:      s.pilots,
	})
	if err != nil {
		recordBatchError(s.flights[r], s.now, err)
		return fmt.Errorf("serve: replica %d batch at t=%dns: %w", r, s.now, err)
	}

	serviceNS := serviceTime(eng, batch, results)
	done := s.now + serviceNS
	s.free[r] = done
	s.batches++
	s.dispatches[r]++
	s.busyNS[r] += serviceNS
	if done > s.makespanNS {
		s.makespanNS = done
	}
	s.rec.ObservePhase(PhaseService, serviceNS)
	recordDispatch(s.flights[r], s.now, len(batch), serviceNS)

	for i, req := range batch {
		a := &s.acc[req.tenant]
		a.inQueue--
		name := s.cfg.Tenants[req.tenant].Name
		waitNS := s.now - req.arrivalNS
		e2e := done - req.arrivalNS
		a.complete(e2e, waitNS, req.deadlineNS < done,
			attribution(waitNS, req.quotaNS, req.retrainNS, serviceNS, results[i]))
		s.completed[r]++
		if s.homes[req.tenant] == r {
			s.homeServed[req.tenant]++
		}
		tr := s.tenantRecs[req.tenant]
		tr.ObservePhase(PhaseQueue, waitNS)
		tr.ObservePhase(PhaseE2E, e2e)
		tr.ObserveSample(req.seq, results[i].Mispredicted, results[i].CacheHit, e2e)
		annotateRequestTrace(s.cfg.Tracer, base+i, req, name, r, waitNS)
		recordCompletion(s.flights[r], done, req, name, e2e, results[i].FaultCounters)
		s.observeWait(waitNS)
	}
	if s.inflight != nil {
		s.inflight[r] = inflight{batch: batch, results: results, doneNS: done, seq: s.batches}
	}
	s.scaleUp()
	return nil
}

// nextFinish returns the replica whose unlearned batch finishes first
// (earlier dispatch on ties), or -1 when the learner has seen every batch.
func (s *clusterLoop) nextFinish() int {
	pick := -1
	for r := range s.inflight {
		f := &s.inflight[r]
		if f.batch == nil {
			continue
		}
		if pick < 0 || f.doneNS < s.inflight[pick].doneNS ||
			(f.doneNS == s.inflight[pick].doneNS && f.seq < s.inflight[pick].seq) {
			pick = r
		}
	}
	return pick
}

// learnFinished feeds every batch finished by now to the online learner, in
// (completion, dispatch) order, and charges each batch's retrain stall to
// the host timeline: the clock advances past the stall — the replicas keep
// computing, but no new batch dispatches until the refit finishes — and
// every queued request is credited the stall time in its pilot_retrain
// attribution component. (Requests arriving mid-stall simply see it as queue
// time — the decomposition stays exact either way.) A stall can carry the
// clock past further completions; those are learned in the same pass.
func (s *clusterLoop) learnFinished() error {
	for {
		r := s.nextFinish()
		if r < 0 || s.inflight[r].doneNS > s.now {
			return nil
		}
		f := s.inflight[r]
		s.inflight[r] = inflight{}
		var stallNS int64
		for i, req := range f.batch {
			ns, err := s.learner.Observe(req.tenant, req.ex, f.results[i].Mispredicted)
			if err != nil {
				return fmt.Errorf("serve: online retrain at t=%dns: %w", s.now, err)
			}
			stallNS += ns
		}
		s.now += stallNS
		for _, q := range s.queued {
			q.retrainNS += stallNS
		}
	}
}

// observeWait feeds the elastic scaler's dispatch-wait window.
func (s *clusterLoop) observeWait(waitNS int64) {
	if s.cfg.ScaleUpQueueNS <= 0 {
		return
	}
	s.waits = append(s.waits, waitNS)
	if len(s.waits) > s.scaleWindow {
		s.waits = s.waits[len(s.waits)-s.scaleWindow:]
	}
}

// scaleUp activates one more replica when the windowed mean queue wait shows
// sustained pressure. The window resets on activation, so one burst can't
// cascade straight to full width.
func (s *clusterLoop) scaleUp() {
	if s.cfg.ScaleUpQueueNS <= 0 || s.active >= len(s.free) || len(s.waits) < s.scaleWindow {
		return
	}
	var sum int64
	for _, w := range s.waits {
		sum += w
	}
	if sum/int64(len(s.waits)) <= s.cfg.ScaleUpQueueNS {
		return
	}
	// A newly activated replica is free from now on — not from virtual 0.
	s.free[s.active] = s.now
	s.active++
	if s.active > s.peakActive {
		s.peakActive = s.active
	}
	s.waits = s.waits[:0]
	s.events = append(s.events, ScaleEvent{AtNS: s.now, Active: s.active, Reason: "scale-up"})
	// The transition lands on the newly activated replica's recording.
	s.flights[s.active-1].Record(obsv.FlightEvent{
		AtNS: s.now, Kind: obsv.FlightScaleUp, N: s.active,
	})
}

// scaleDown retires idle replicas beyond the floor, highest index first.
// Only a replica whose last batch finished ScaleDownIdleNS ago goes away,
// so nothing in flight is ever dropped.
func (s *clusterLoop) scaleDown() {
	if s.cfg.ScaleUpQueueNS <= 0 || s.cfg.ScaleDownIdleNS <= 0 {
		return
	}
	for s.active > s.minActive {
		r := s.active - 1
		if s.free[r] > s.now-s.cfg.ScaleDownIdleNS {
			return
		}
		s.active--
		s.events = append(s.events, ScaleEvent{AtNS: s.now, Active: s.active, Reason: "scale-down"})
		// The retired replica records its own retirement.
		s.flights[r].Record(obsv.FlightEvent{
			AtNS: s.now, Kind: obsv.FlightScaleDown, N: s.active,
		})
	}
}

// report assembles the cluster summary: the serving report plus placement,
// per-replica, and scaling views. The makespan is the last completion or,
// when a retrain stall or a shed arrival trails it, the final clock.
func (s *clusterLoop) report() *ClusterReport {
	s.makespanNS = max(s.makespanNS, s.now)
	rep := &ClusterReport{
		Report:      s.serveReport(),
		ScaleEvents: s.events,
		PeakActive:  s.peakActive,
	}
	rep.Flights = collectFlights(s.flights, s.makespanNS)
	for t, tc := range s.cfg.Tenants {
		rep.Placements = append(rep.Placements, Placement{
			Tenant: tc.Name, Home: s.homes[t],
			Requests: s.acc[t].completed, HomeServed: s.homeServed[t],
		})
	}
	for r := range s.free {
		st := ReplicaStats{
			Replica: r, Dispatches: s.dispatches[r],
			Completed: s.completed[r], BusyNS: s.busyNS[r],
		}
		if s.makespanNS > 0 {
			st.Util = float64(s.busyNS[r]) / float64(s.makespanNS)
		}
		rep.Replicas = append(rep.Replicas, st)
	}
	return rep
}
