package expt

import (
	"fmt"

	"dynnoffload/internal/dynn"
	"dynnoffload/internal/graph"
	"dynnoffload/internal/metrics"
)

// TableI reproduces the paper's Table I: the Jaccard distance between the
// control-flow vector of the first Tree-LSTM training sample and every other
// sample, demonstrating that profiling a few iterations cannot predict the
// rest (§II-B). The paper uses 6,000 samples; numSamples scales that.
func TableI(numSamples int, seed uint64) (*Table, error) {
	if numSamples <= 1 {
		numSamples = 6000
	}
	m := dynn.NewTreeLSTM(dynn.TreeLSTMConfig{Levels: 6, Hidden: 64, SeqLen: 16, Batch: 1, Seed: seed})
	samples := dynn.GenerateSamples(seed^0x7ab1e1, numSamples, 8, 48)

	static := m.Static()
	baseline, err := m.Resolve(samples[0])
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	baseBits := baseline.ControlBits(static)

	var jds []float64
	buckets := make([]int, 5) // [0,0.2) [0.2,0.4) ... [0.8,1.0]
	for _, s := range samples[1:] {
		r, err := m.Resolve(s)
		if err != nil {
			return nil, fmt.Errorf("table1: %w", err)
		}
		jd := metrics.Jaccard(baseBits, r.ControlBits(static))
		jds = append(jds, jd)
		idx := int(jd * 5)
		if idx > 4 {
			idx = 4
		}
		buckets[idx]++
	}
	sum := metrics.Summarize(jds)

	t := &Table{
		Title:  "Table I — Jaccard distance of Tree-LSTM control-flow vectors vs sample #1",
		Header: []string{"JD range", "samples", "fraction"},
	}
	labels := []string{"[0.0,0.2)", "[0.2,0.4)", "[0.4,0.6)", "[0.6,0.8)", "[0.8,1.0]"}
	for i, n := range buckets {
		t.addRow(txt(labels[i]), val("%d", n), val("%.1f%%", 100*float64(n)/float64(len(jds))))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean JD=%.3f std=%.3f p50=%.3f p90=%.3f over %d samples — wide divergence defeats PGO prefetch",
			sum.Mean, sum.Std, sum.P50, sum.P90, sum.N))
	return t, nil
}

// TableII reproduces the workload inventory (paper Table II).
func TableII() *Table {
	t := &Table{
		Title:  "Table II — evaluated workloads",
		Header: []string{"model", "base type", "dynamic", "dynamism", "params", "paths"},
	}
	for _, entry := range dynn.Zoo() {
		m := entry.New(1, 1)
		paths := "-"
		if entry.Dynamic {
			if ps, err := enumerateCount(m); err == nil {
				paths = fmt.Sprintf("%d", ps)
			}
		}
		t.Rows = append(t.Rows, []string{
			entry.Name, entry.Base.String(), fmt.Sprintf("%v", entry.Dynamic),
			entry.Dynamism, fmt.Sprintf("%.2fM", float64(dynn.ParamCount(m))/1e6), paths,
		})
	}
	return t
}

func enumerateCount(m dynn.Model) (int, error) {
	paths, err := graph.EnumeratePaths(m.Static())
	if err != nil {
		return 0, err
	}
	return len(paths), nil
}
