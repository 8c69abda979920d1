package expt

import (
	"fmt"

	"dynnoffload/internal/core"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/pilot"
	"dynnoffload/internal/serve"
)

// ServeSweepUtil is the offered-load grid, as multiples of the calibrated
// on-demand iteration rate (1/Tod). The top of the grid sits above both
// systems' un-fused capacity; continuous batching can push the knee past it,
// which the bisection refinement then resolves.
var ServeSweepUtil = []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0}

const (
	// serveSweepRequests bounds the serving pool and the offered requests
	// per sweep point.
	serveSweepRequests = 120
	// serveSweepSLOFactor sets the p99 objective as a multiple of the
	// worst-case calibrated on-demand iteration. The worst case, not the
	// mean: path-dependent iteration times vary widely (that is the paper's
	// premise), and an SLO under the slowest request's bare service time
	// would be unmeetable at any load.
	serveSweepSLOFactor = 3
	// serveSweepBisect refines the knee between the last sustained and first
	// unsustained grid point, resolving capacity gaps finer than the grid.
	serveSweepBisect = 5
)

// serveSweepRow is one model's sweep outcome, kept structured so the package
// tests can pin engine-vs-baseline ordering without parsing table text.
type serveSweepRow struct {
	name      string
	migrating bool  // the model's serving path moves bytes host<->device
	todNS     int64 // calibrated mean on-demand simulated iteration
	sloNS     int64
	engineQPS float64 // max offered rate sustained at p99 <= SLO
	odQPS     float64
}

// ServeSweep sweeps offered load against the serving front-end for every zoo
// model and reports the maximum rate each system sustains at a fixed p99 SLO
// (serveSweepSLOFactor times the on-demand iteration). "engine" is the full
// DyNN-Offload path; "on-demand" forces every sample through the
// migrate-on-fault baseline. Models whose serving path never migrates are
// marked and skipped: both policies are identical when nothing moves.
func ServeSweep(wb *Workbench) (*Table, error) {
	tab := &Table{
		Title:  "ServeSweep: max sustainable QPS at fixed p99 SLO (engine vs always-on-demand)",
		Header: []string{"model", "migrating", "od-iter-ms", "slo-ms", "engine-maxQPS", "ondemand-maxQPS", "gain"},
		Notes: []string{
			fmt.Sprintf("SLO = %dx worst-case calibrated on-demand iteration; load grid = utilization x mean on-demand rate", serveSweepSLOFactor),
			"a load is sustained when every offered request completes with p99 <= SLO; the knee is bisected below grid resolution",
			"fits-GPU rows never migrate, so both policies serve identically; sweep skipped",
		},
	}
	for _, mb := range wb.Models {
		row, err := wb.sweepModel(mb)
		if err != nil {
			return nil, err
		}
		if !row.migrating {
			tab.addRow(txt(row.name), txt("no (fits GPU)"), msCell(row.todNS), txt("-"), txt("-"), txt("-"), txt("-"))
			continue
		}
		gain := txt("-")
		if row.odQPS > 0 {
			gain = val("%.2fx", row.engineQPS/row.odQPS)
		}
		tab.addRow(
			txt(row.name), txt("yes"), msCell(row.todNS), msCell(row.sloNS),
			qps(row.engineQPS), qps(row.odQPS), gain,
		)
	}
	return tab, nil
}

// sweepModel calibrates one model and sweeps both systems over the load grid.
func (wb *Workbench) sweepModel(mb *ModelBench) (serveSweepRow, error) {
	row := serveSweepRow{name: mb.Entry.Name}
	pool := mb.Test
	if len(pool) > serveSweepRequests {
		pool = pool[:serveSweepRequests]
	}
	mean, worst, xfer, err := wb.serveCalibrate(mb, pool)
	if err != nil {
		return row, err
	}
	row.todNS = mean
	row.migrating = xfer > 0
	if !row.migrating {
		return row, nil
	}
	row.sloNS = serveSweepSLOFactor * worst
	if row.engineQPS, err = wb.maxQPS(mb, pool, 1, false, mean, row.sloNS); err != nil {
		return row, err
	}
	if row.odQPS, err = wb.maxQPS(mb, pool, 1, true, mean, row.sloNS); err != nil {
		return row, err
	}
	return row, nil
}

// serveCalibrate measures the mean and worst-case simulated on-demand
// iteration over the serving pool, and whether serving this model migrates at
// all.
func (wb *Workbench) serveCalibrate(mb *ModelBench, pool []*pilot.Example) (meanNS, worstNS, xferBytes int64, err error) {
	if len(pool) == 0 {
		return 0, 0, 0, fmt.Errorf("expt: %s has no test samples to calibrate on", mb.Entry.Name)
	}
	eng := wb.serveEngine(mb, true)
	results, err := eng.RunBatch(pool, core.EpochOptions{Workers: wb.Opts.Workers})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("expt: %s calibration: %w", mb.Entry.Name, err)
	}
	var sum int64
	for _, r := range results {
		t := r.Breakdown.TotalNS()
		sum += t
		if t > worstNS {
			worstNS = t
		}
		xferBytes += r.Breakdown.H2DBytes + r.Breakdown.D2HBytes
	}
	meanNS = sum / int64(len(pool))
	if meanNS < 1 {
		meanNS = 1
	}
	return meanNS, worstNS, xferBytes, nil
}

// maxQPS finds the highest offered rate (req/s) a pool of gpus replicas
// sustains: every request completes and the combined p99 stays at or under
// the SLO. It walks the load grid (scaled by gpus, so the knee stays inside
// it at every width) bottom-up to bracket the knee, stopping at the first
// unsustained point — offered load only grows from there — then bisects the
// bracket so capacity differences finer than the grid step still resolve.
func (wb *Workbench) maxQPS(mb *ModelBench, pool []*pilot.Example, gpus int, onDemand bool, todNS, sloNS int64) (float64, error) {
	base := float64(gpus) * 1e9 / float64(todNS)
	var lo float64 // highest sustained rate
	hi := -1.0     // lowest unsustained rate
	for _, u := range ServeSweepUtil {
		rate := u * base
		ok, err := wb.sustains(mb, pool, gpus, onDemand, rate, sloNS)
		if err != nil {
			return 0, err
		}
		if !ok {
			hi = rate
			break
		}
		lo = rate
	}
	if hi < 0 {
		return lo, nil // sustained the whole grid
	}
	for i := 0; i < serveSweepBisect; i++ {
		mid := (lo + hi) / 2
		ok, err := wb.sustains(mb, pool, gpus, onDemand, mid, sloNS)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// sustains plays one sweep point through serve.RunCluster — two equal
// tenants splitting the offered rate, each holding half the device as quota,
// both under the same SLO, against gpus fresh replicas — and applies the
// sustainability test.
func (wb *Workbench) sustains(mb *ModelBench, pool []*pilot.Example, gpus int, onDemand bool, rate float64, sloNS int64) (bool, error) {
	requests := len(pool)
	half := mb.Platform.GPU.MemBytes / 2
	engines := make([]*core.Engine, gpus)
	for i := range engines {
		engines[i] = wb.serveEngine(mb, onDemand)
	}
	cfg := serve.ClusterConfig{
		Config: serve.Config{
			Tenants: []serve.TenantConfig{
				{Name: "a", Requests: requests / 2, RatePerSec: rate / 2,
					Seed: wb.Opts.Seed + 101, QuotaBytes: half, SLONS: sloNS},
				{Name: "b", Requests: requests - requests/2, RatePerSec: rate / 2,
					Seed: wb.Opts.Seed + 202, QuotaBytes: half, SLONS: sloNS},
			},
			Workers: wb.Opts.Workers,
		},
	}
	rep, err := serve.RunCluster(&serve.ClusterBackend{Engines: engines, Pool: pool}, cfg)
	if err != nil {
		return false, err
	}
	return rep.Total.Completed > 0 &&
		rep.Total.Completed == rep.Total.Arrivals &&
		rep.Total.P99NS <= sloNS, nil
}

// serveEngine builds a fresh engine per sweep cell — the mis-prediction cache
// is stateful, and cells must not share it. The engine cell memoizes repeated
// requests (a serving workload re-submits identical jobs); the on-demand
// baseline ignores predictions entirely, so the memo stays off there. The
// resolved-plan cache IS shared across cells: plans are stateless pure
// functions, so the sweep's bisection replays pay compilation once, not once
// per grid point.
func (wb *Workbench) serveEngine(mb *ModelBench, onDemand bool) *core.Engine {
	cfg := core.DefaultConfig(mb.Platform)
	cfg.Plans = wb.Plans
	cfg.ForceOnDemand = onDemand
	cfg.MemoizeSamples = !onDemand
	if wb.Opts.Faults.Rate > 0 {
		cfg.Faults = faults.New(wb.Opts.Faults)
	}
	return core.NewEngine(cfg, wb.Pilot)
}

// qps renders a requests-per-second rate, keeping precision for the slow
// models whose sustainable rates sit below 10 req/s.
func qps(v float64) cell {
	if v <= 0 {
		return cell{"0", v}
	}
	if v < 10 {
		return val("%.2f", v)
	}
	return val("%.0f", v)
}
