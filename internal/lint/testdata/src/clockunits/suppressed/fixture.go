// Package fixture pins the clockunits suppression contract: a sim+wall sum is
// silenced with //dynnlint:ignore and a reason.
package fixture

import "dynnoffload/internal/core"

// FoldedTotal knowingly adds the pilot's wall time to the simulated total,
// for a printout that shows one figure per sample.
func FoldedTotal(r core.SampleResult) int64 {
	//dynnlint:ignore clockunits a printout figure, never fed back into the simulation
	return r.Breakdown.TotalNS() + r.PilotNS
}
