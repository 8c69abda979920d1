package serve

import (
	"errors"

	"dynnoffload/internal/core"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/obsv"
)

// Flight-recorder wiring for the event loop: one recorder per replica, each
// event stamped with its simulated time (an arrival at its arrival, a
// dispatch at its start, a completion at its batch's finish). The times come
// from the serving clock alone, so the recording is the same whichever
// layout the tracer uses.

// FlightError carries the flight-recorder snapshots taken when a serving run
// aborts (engine capacity exhaustion mid-batch), so post-mortems survive the
// missing report. Unwrap exposes the underlying cause for errors.Is/As.
type FlightError struct {
	Err     error
	Flights []obsv.FlightSnapshot
}

func (e *FlightError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying dispatch error.
func (e *FlightError) Unwrap() error { return e.Err }

// wrapFlightError attaches any captured snapshots to a run-aborting error.
func wrapFlightError(err error, recs []*obsv.FlightRecorder) error {
	var snaps []obsv.FlightSnapshot
	for _, f := range recs {
		snaps = append(snaps, f.Snapshots()...)
	}
	if len(snaps) == 0 {
		return err
	}
	return &FlightError{Err: err, Flights: snaps}
}

// recordAdmission logs an arrival's admission outcome.
func recordAdmission(f *obsv.FlightRecorder, kind string, r *request, tenant string) {
	f.Record(obsv.FlightEvent{
		AtNS: r.arrivalNS, Kind: kind, Tenant: tenant,
		Request: r.id, Seq: r.seq, Bytes: r.needBytes,
	})
}

// recordDispatch logs one continuous-batch dispatch.
func recordDispatch(f *obsv.FlightRecorder, atNS int64, batch int, serviceNS int64) {
	f.Record(obsv.FlightEvent{AtNS: atNS, Kind: obsv.FlightDispatch, N: batch, DurNS: serviceNS})
}

// recordCompletion logs one request's completion plus its trigger events: an
// SLO breach snapshots the ring (deadline overshoot in DurNS), and a fault
// ladder that degraded to on-demand or synchronous fetching snapshots too
// (injected fault count in N).
func recordCompletion(f *obsv.FlightRecorder, doneNS int64, r *request, tenant string, e2eNS int64, fc faults.Counters) {
	f.Record(obsv.FlightEvent{
		AtNS: doneNS, Kind: obsv.FlightComplete, Tenant: tenant,
		Request: r.id, Seq: r.seq, DurNS: e2eNS, Bytes: r.needBytes,
	})
	if r.deadlineNS < doneNS {
		f.Record(obsv.FlightEvent{
			AtNS: doneNS, Kind: obsv.FlightSLOBreach, Tenant: tenant,
			Request: r.id, Seq: r.seq, DurNS: doneNS - r.deadlineNS,
		})
		f.Snapshot(doneNS, obsv.FlightSLOBreach)
	}
	if fc.OnDemandFallbacks > 0 || fc.SyncFallbacks > 0 {
		f.Record(obsv.FlightEvent{
			AtNS: doneNS, Kind: obsv.FlightFaultDegrade, Tenant: tenant,
			Request: r.id, Seq: r.seq, N: int(fc.Injected()),
		})
		f.Snapshot(doneNS, obsv.FlightFaultDegrade)
	}
}

// recordBatchError logs a dispatch failure; engine capacity exhaustion is the
// snapshot-worthy case (the run is about to abort).
func recordBatchError(f *obsv.FlightRecorder, atNS int64, err error) {
	if !errors.Is(err, core.ErrCapacityExceeded) {
		return
	}
	f.Record(obsv.FlightEvent{AtNS: atNS, Kind: obsv.FlightCapacity})
	f.Snapshot(atNS, obsv.FlightCapacity)
}

// collectFlights finalizes every recorder (an unconditional end-of-run
// snapshot per replica) and returns all snapshots in replica order.
func collectFlights(recs []*obsv.FlightRecorder, makespanNS int64) []obsv.FlightSnapshot {
	var out []obsv.FlightSnapshot
	for _, f := range recs {
		f.FinalSnapshot(makespanNS)
		out = append(out, f.Snapshots()...)
	}
	return out
}
