package serve

import (
	"dynnoffload/internal/core"
	"dynnoffload/internal/obsv"
)

// attribution decomposes one completed request's end-to-end latency into the
// obsv taxonomy. The decomposition is exact by construction:
//
//	e2e = waitNS + serviceNS
//	    = (waitNS - quotaNS - retrainNS) + quotaNS + retrainNS  // queue + quota + pilot_retrain
//	    + DeviceNS                                // compute + exposed + remat + fault
//	    + (serviceNS - DeviceNS)                  // batching residual
//
// so TotalNS() of the returned components equals e2e to the nanosecond.
// retrainNS is the online-learning stall time the request sat queued behind;
// both it and quotaNS are measured inside the wait by construction, and both
// are clamped so the queue component can never go negative even if that
// invariant drifts (quota-blocked and retrain-stalled stretches can overlap).
// PilotNS stays zero: pilot inference and output mapping are measured in host
// wall time (SampleResult.PilotNS/MappingNS), off the virtual clock, so
// charging them here would leak scheduling noise into the deterministic
// decomposition.
// AllReduceNS stays zero too — served requests do not synchronize gradients.
func attribution(waitNS, quotaNS, retrainNS, serviceNS int64, res core.SampleResult) obsv.AttributionComponents {
	bd := res.Breakdown
	if quotaNS > waitNS {
		quotaNS = waitNS
	}
	if retrainNS > waitNS-quotaNS {
		retrainNS = waitNS - quotaNS
	}
	return obsv.AttributionComponents{
		QueueNS:        waitNS - quotaNS - retrainNS,
		QuotaNS:        quotaNS,
		PilotRetrainNS: retrainNS,
		ComputeNS:      bd.ComputeNS,
		ExposedNS:      bd.ExposedXferNS,
		RematNS:        bd.RematNS,
		FaultNS:        bd.FaultNS,
		BatchNS:        serviceNS - bd.DeviceNS(),
	}
}
