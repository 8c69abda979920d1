package expt

import (
	"fmt"
)

// ClusterSweepGPUs is the replica grid of the cluster capacity sweep.
var ClusterSweepGPUs = []int{1, 2, 4}

// ClusterSweepStat is one migrating model's capacity curve: the maximum
// offered rate the replica pool sustains at the model's fixed p99 SLO, per
// GPU count. dynnbench -clusterjson serializes these (CI writes
// cluster-sweep.json).
type ClusterSweepStat struct {
	Model string    `json:"model"`
	TodNS int64     `json:"od_iter_ns"`
	SLONS int64     `json:"slo_ns"`
	GPUs  []int     `json:"gpus"`
	QPS   []float64 `json:"max_qps"`
}

// ClusterSweepStats runs the cluster capacity sweep over every migrating zoo
// model: the same two-tenant serving workload as ServeSweep, played through
// serve.RunCluster against 1, 2, and 4 GPU replicas. The offered-load grid
// scales with the replica count so the knee stays inside the grid at every
// width; the per-model SLO is fixed across widths (capacity, not latency, is
// what replicas buy).
func ClusterSweepStats(wb *Workbench) ([]ClusterSweepStat, error) {
	var stats []ClusterSweepStat
	for _, mb := range wb.Models {
		pool := mb.Test
		if len(pool) > serveSweepRequests {
			pool = pool[:serveSweepRequests]
		}
		mean, worst, xfer, err := wb.serveCalibrate(mb, pool)
		if err != nil {
			return nil, err
		}
		if xfer == 0 {
			continue // fits GPU: replicas multiply an uncontended workload
		}
		st := ClusterSweepStat{Model: mb.Entry.Name, TodNS: mean, SLONS: serveSweepSLOFactor * worst}
		for _, g := range ClusterSweepGPUs {
			q, err := wb.maxQPS(mb, pool, g, false, mean, st.SLONS)
			if err != nil {
				return nil, err
			}
			st.GPUs = append(st.GPUs, g)
			st.QPS = append(st.QPS, q)
		}
		stats = append(stats, st)
	}
	return stats, nil
}

// ClusterSweep renders the capacity sweep as a table.
func ClusterSweep(wb *Workbench) (*Table, error) {
	stats, err := ClusterSweepStats(wb)
	if err != nil {
		return nil, err
	}
	return ClusterSweepTable(stats), nil
}

// ClusterSweepTable renders already-computed capacity curves (dynnbench runs
// the sweep once, writes -clusterjson, and prints this table from the same
// stats).
func ClusterSweepTable(stats []ClusterSweepStat) *Table {
	tab := &Table{
		Title:  "ClusterSweep: max sustainable QPS vs GPU count at fixed p99 SLO",
		Header: []string{"model", "od-iter-ms", "slo-ms", "1gpu-maxQPS", "2gpu-maxQPS", "4gpu-maxQPS", "4gpu/1gpu"},
		Notes: []string{
			fmt.Sprintf("SLO = %dx worst-case calibrated on-demand iteration, fixed per model across replica counts", serveSweepSLOFactor),
			"a load is sustained when every offered request completes with p99 <= SLO; the knee is bisected below grid resolution",
			"non-migrating zoo models are skipped: replicas multiply an uncontended workload",
		},
	}
	for _, st := range stats {
		row := []cell{txt(st.Model), msCell(st.TodNS), msCell(st.SLONS)}
		for _, q := range st.QPS {
			row = append(row, qps(q))
		}
		scale := txt("-")
		if st.QPS[0] > 0 {
			scale = val("%.2fx", st.QPS[len(st.QPS)-1]/st.QPS[0])
		}
		tab.addRow(append(row, scale)...)
	}
	return tab
}
