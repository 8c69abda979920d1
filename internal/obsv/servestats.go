package obsv

// ServeStats summarizes one serving run (or one tenant's slice of it) on the
// simulated clock: how much load arrived, how much was admitted versus shed,
// and the exact end-to-end latency quantiles. Unlike the phase Histograms —
// whose quantiles are power-of-two bucket bounds — the serving layer computes
// these quantiles exactly from its sorted per-request latencies, because SLO
// attainment is the quantity under test, not a diagnostic. Defined here (like
// FaultStats) so obsv keeps zero dependencies on the rest of the repo.
type ServeStats struct {
	Tenant   string `json:"tenant,omitempty"`
	Arrivals int64  `json:"arrivals"`
	// Shed counts requests refused at admission because the tenant's queue
	// was full (backpressure); QuotaShed counts refusals because the request
	// could never fit the tenant's memory quota.
	Shed      int64 `json:"shed"`
	QuotaShed int64 `json:"quota_shed"`
	Completed int64 `json:"completed"`
	// Batches is the number of continuous-batch dispatches (global view only;
	// zero on per-tenant stats).
	Batches int64 `json:"batches,omitempty"`
	// SLONS is the configured deadline budget; SLOViolations counts completed
	// requests whose end-to-end latency exceeded it.
	SLONS         int64 `json:"slo_ns,omitempty"`
	SLOViolations int64 `json:"slo_violations"`
	// End-to-end latency (arrival to completion, simulated ns), exact.
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
	MaxNS  int64 `json:"max_ns"`
	// Mean time a completed request spent queued before its batch dispatched.
	QueueMeanNS int64 `json:"queue_mean_ns"`
	// Memory accounting: the configured quota and the most bytes reserved in
	// any one batch (the tenant's own, or the whole batch's for the total).
	QuotaBytes     int64 `json:"quota_bytes,omitempty"`
	QuotaPeakBytes int64 `json:"quota_peak_bytes,omitempty"`
	// Attribution decomposes the completed requests' summed end-to-end latency
	// into named causes (and the p99 tail's slice on its own); All.TotalNS()
	// equals the exact sum of the per-request latencies.
	Attribution *LatencyAttribution `json:"attribution,omitempty"`
	// Online summarizes in-loop pilot learning; nil when online learning is
	// off (global view only; nil on per-tenant stats).
	Online *OnlineStats `json:"online,omitempty"`
}

// OnlineStats summarizes one serving run's online pilot learning: how many
// outcomes the replay memory observed, how many retrain stalls fired and what
// they cost on the simulated clock, and the windowed mispredict-rate
// trajectory the learning is supposed to bend downward.
type OnlineStats struct {
	// Observed counts completed requests whose (features, truth-path) outcome
	// entered the replay memory; Mispredicts counts those whose pilot
	// prediction disagreed with the resolved truth path.
	Observed    int64 `json:"observed"`
	Mispredicts int64 `json:"mispredicts"`
	// Retrains counts retrain stalls; RetrainNS is their summed simulated
	// cost charged to the host timeline.
	Retrains  int64 `json:"retrains"`
	RetrainNS int64 `json:"retrain_ns"`
	// MemorySize is the number of live entries in the shared replay ring at
	// the end of the run; MemoryCap its fixed capacity.
	MemorySize int `json:"memory_size"`
	MemoryCap  int `json:"memory_cap"`
	// AdapterTenants counts tenants that had warmed a per-tenant adapter head.
	AdapterTenants int `json:"adapter_tenants,omitempty"`
	// WindowRates is the mispredict-rate trajectory: one sample per completed
	// observation window, in observation order.
	WindowRates []OnlineWindowRate `json:"window_rates,omitempty"`
}

// OnlineWindowRate is one point of the windowed mispredict trajectory.
type OnlineWindowRate struct {
	// EndSeq is the 1-based observation count at which the window closed.
	EndSeq int64 `json:"end_seq"`
	// Mispredicts out of Window observations in this window.
	Mispredicts int `json:"mispredicts"`
	Window      int `json:"window"`
	// Rate = Mispredicts / Window.
	Rate float64 `json:"rate"`
}

// FirstWindowRate and LastWindowRate return the trajectory endpoints, or -1
// when no window closed (convenient for decline checks in tests and sweeps).
func (o *OnlineStats) FirstWindowRate() float64 {
	if o == nil || len(o.WindowRates) == 0 {
		return -1
	}
	return o.WindowRates[0].Rate
}

func (o *OnlineStats) LastWindowRate() float64 {
	if o == nil || len(o.WindowRates) == 0 {
		return -1
	}
	return o.WindowRates[len(o.WindowRates)-1].Rate
}

// SetServe attaches a serving summary so it rides along in RunStats and the
// Prometheus exposition, mirroring SetOverlap.
func (r *Recorder) SetServe(s ServeStats) {
	r.serveMu.Lock()
	r.serve = &s
	r.serveMu.Unlock()
}
