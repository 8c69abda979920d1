// Package metrics provides the statistical measures used in the paper's
// analyses: Jaccard distance over control-flow vectors (Table I), and
// Spearman/Pearson correlation for the §II-C heuristic study.
package metrics

import (
	"math"
	"sort"
)

// Jaccard returns the Jaccard distance between two boolean vectors of equal
// length: 1 - |intersection| / |union| over the sets of true positions.
// Two all-false vectors have distance 0 (identical).
func Jaccard(a, b []bool) float64 {
	if len(a) != len(b) {
		panic("metrics: Jaccard length mismatch") //dynnlint:ignore panicfree length mismatch is a caller bug; fail fast like stdlib slice kernels
	}
	inter, union := 0, 0
	for i := range a {
		if a[i] && b[i] {
			inter++
		}
		if a[i] || b[i] {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// Pearson returns the Pearson correlation coefficient of x and y.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("metrics: Pearson length mismatch") //dynnlint:ignore panicfree length mismatch is a caller bug; fail fast like stdlib slice kernels
	}
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of x and y.
func Spearman(x, y []float64) float64 {
	return Pearson(ranks(x), ranks(y))
}

// ranks assigns average ranks (ties share the mean rank).
func ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] { //dynnlint:ignore floatcmp rank ties require bit-equal values; a tolerance would merge distinct ranks
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// Summary holds basic distribution statistics.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	P50, P90  float64
}

// Summarize computes a Summary of x.
func Summarize(x []float64) Summary {
	var s Summary
	s.N = len(x)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	s.P50 = percentile(sorted, 0.5)
	s.P90 = percentile(sorted, 0.9)
	var sum float64
	for _, v := range x {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, v := range x {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N))
	return s
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
