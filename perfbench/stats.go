package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPick is the highest percentile that still has at least minBeyond
// samples strictly above its rank, with the value at that rank.
type tailPick struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Beyond     int     `json:"beyond"`
	N          int     `json:"n"`
}

// tailPercentile picks the highest percentile with at least minBeyond
// samples beyond it. With n sorted samples, the value of rank k (1-based)
// is the k/n percentile and has n-k samples beyond it, so the pick is rank
// n-minBeyond. Fewer than minBeyond+1 samples have no such percentile: the
// pick falls back to the maximum and reports how few samples lie beyond.
func tailPercentile(values []float64) tailPick {
	n := len(values)
	if n == 0 {
		return tailPick{}
	}
	s := sortedCopy(values)
	k := n - minBeyond
	if k < 1 {
		k = n
	}
	return tailPick{
		Percentile: 100 * float64(k) / float64(n),
		Value:      s[k-1],
		Beyond:     n - k,
		N:          n,
	}
}

// median is the middle value (mean of the two middle values for even n).
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// exactQuantile is the nearest-rank quantile: the smallest sample with at
// least q of the samples at or below it.
func exactQuantile(values []float64, q float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return s[k-1]
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// opLog records the timed ops of one run. A failed op — one that returned
// an error or failed an output check — is kept with an infinite duration, so
// it counts against every latency limit instead of vanishing from the
// distribution.
type opLog struct {
	ms     []float64
	items  int
	wallNS int64
	failed int
	errs   []string
}

// add records one op: its wall time, the items it completed, and its error.
func (l *opLog) add(d time.Duration, items int, err error) {
	if err != nil {
		l.failed++
		l.errs = append(l.errs, err.Error())
		l.ms = append(l.ms, math.Inf(1))
		return
	}
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.items += items
	l.wallNS += d.Nanoseconds()
}

// attempted is the number of ops recorded.
func (l *opLog) attempted() int { return len(l.ms) }

// itemsPerSec is items completed in successful ops over their summed time.
func (l *opLog) itemsPerSec() float64 {
	if l.wallNS == 0 {
		return 0
	}
	return float64(l.items) / (float64(l.wallNS) / 1e9)
}

// metricName is the grammar every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a valid metric name.
func validName(name string) bool { return metricName.MatchString(name) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the one-line result the benchmark prints last.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance says what produced a result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

// result is the full record of one run, written to the output directory:
// the printed summary plus provenance, figures outside the summary (the
// failed-op share and op count), the op-time tail pick, every set-up time,
// the traced run's ledger, and the failures.
type result struct {
	Provenance provenance         `json:"provenance"`
	Summary    summary            `json:"summary"`
	Extra      map[string]metric  `json:"extra,omitempty"`
	Tail       tailPick           `json:"op_ms_tail_pick"`
	SetupS     []float64          `json:"setup_s_runs"`
	Ledger     map[string]float64 `json:"ledger,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
}

// writeResult encodes r as indented JSON.
func writeResult(w io.Writer, r *result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("perfbench: encode result: %w", err)
	}
	return nil
}

// readResult decodes a result written by writeResult.
func readResult(rd io.Reader) (*result, error) {
	var r result
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("perfbench: decode result: %w", err)
	}
	return &r, nil
}

// finite replaces a non-finite figure (a failed op's infinite time) with -1
// so the summary stays valid JSON; such a run is already marked incorrect.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// splitmix derives independent, reproducible sub-seeds from the workload
// seed, one per input stream.
func splitmix(seed uint64, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
