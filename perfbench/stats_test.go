package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1) // descending, so the pick must sort
	}
	return v
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		pct, value float64
		beyond     int
	}{
		{n: 100, pct: 90, value: 90, beyond: 10},
		{n: 35, pct: 100 * 25.0 / 35, value: 25, beyond: 10},
		{n: 11, pct: 100 * 1.0 / 11, value: 1, beyond: 10},
		// Too few samples for ten beyond: the maximum, with none beyond.
		{n: 10, pct: 100, value: 10, beyond: 0},
		{n: 1, pct: 100, value: 1, beyond: 0},
	} {
		got := tailPercentile(seq(tc.n))
		if math.Abs(got.Percentile-tc.pct) > 1e-9 || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want p%.3f value %g beyond %d", tc.n, got, tc.pct, tc.value, tc.beyond)
		}
	}
	if got := tailPercentile(nil); got != (tailPick{}) {
		t.Errorf("empty: got %+v", got)
	}
}

func TestTailPercentileIsHighestWithTenBeyond(t *testing.T) {
	for n := 11; n <= 200; n++ {
		v := seq(n)
		got := tailPercentile(v)
		beyond := 0
		for _, x := range v {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != minBeyond || got.Beyond != minBeyond {
			t.Fatalf("n=%d: %d samples beyond the pick (reported %d), want %d", n, beyond, got.Beyond, minBeyond)
		}
	}
}

func TestMedianAndExactQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	v := seq(100)
	if got := exactQuantile(v, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
	if got := exactQuantile(v, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
}

func TestFailedOpCountsAndMissesEveryLimit(t *testing.T) {
	var l opLog
	l.add(10*time.Millisecond, 100, nil)
	l.add(20*time.Millisecond, 100, nil)
	l.add(time.Millisecond, 100, errors.New("boom"))
	if l.attempted() != 3 || l.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", l.attempted(), l.failed)
	}
	for _, limit := range []float64{0, 1, 1e9, math.MaxFloat64} {
		if l.ms[2] <= limit {
			t.Errorf("the failed op meets the %g ms limit", limit)
		}
	}
	if l.ms[0] > 10 {
		t.Errorf("a 10 ms op reads %g ms", l.ms[0])
	}
	// Items and time count successful ops only.
	if l.items != 200 || math.Abs(l.itemsPerSec()-200/0.030) > 1e-6 {
		t.Errorf("items %d, items/s %g", l.items, l.itemsPerSec())
	}
	// The failure sits in the tail: the slowest op is the failed one.
	if got := exactQuantile(l.ms, 1); !math.IsInf(got, 1) {
		t.Errorf("slowest op = %g, want +Inf", got)
	}
	if got := finite(math.Inf(1)); got != -1 {
		t.Errorf("finite(+Inf) = %g", got)
	}
}

var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.name) {
			t.Errorf("invalid metric name %q", d.name)
		}
		if !unitName.MatchString(d.unit) {
			t.Errorf("%s: invalid unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "ünï", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for name := range workloads {
		if !validName(name) {
			t.Errorf("invalid workload name %q", name)
		}
	}
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json, which the
// repository root declares, in step with the metrics this command reports.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, command %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, command %v", names, want)
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := &result{
		Provenance: provenance{Workload: "serve-tenants", Seed: 7, Seconds: 10, GoVersion: "go1.x",
			GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, NumCPU: 2, Revision: "abc", Modified: true},
		Summary: summary{Correct: true, Attempted: 12, Failed: 0, Metrics: map[string]metric{
			"op_ms_p50": {Value: 1.25, Unit: "ms"}, "setup_s": {Value: 3.5, Unit: "s"},
		}},
		Extra:  map[string]metric{"failed_op_share": {Value: 0, Unit: "ratio"}},
		Tail:   tailPick{Percentile: 16.7, Value: 1.5, Beyond: 10, N: 12},
		SetupS: []float64{3.4, 3.5, 3.6},
		Ledger: map[string]float64{"pilot.resolve_op_share": 0.6},
		Errors: []string{"none really"},
	}
	var buf bytes.Buffer
	if err := writeResult(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result:\n in %+v\nout %+v", in, out)
	}
	if _, err := readResult(bytes.NewBufferString("{not json")); err == nil {
		t.Error("readResult accepted malformed input")
	}
}

func TestSummaryLineKeys(t *testing.T) {
	b, err := json.Marshal(summary{Correct: true, Attempted: 1, Metrics: map[string]metric{"x": {1, "ms"}}})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("summary line lacks %q: %s", k, b)
		}
	}
	if len(keys) != 4 {
		t.Errorf("summary line has %d keys, want 4: %s", len(keys), b)
	}
}

func TestSplitmixStreams(t *testing.T) {
	if splitmix(1, 0) != splitmix(1, 0) {
		t.Fatal("splitmix is not deterministic")
	}
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for stream := uint64(0); stream < 8; stream++ {
			v := splitmix(seed, stream)
			if seen[v] {
				t.Fatalf("seed %d stream %d collides", seed, stream)
			}
			seen[v] = true
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	s := &spans{all: []span{
		{ID: 1, Name: opSpanName, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "call", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "call", Start: 50, End: 90},
		{ID: 4, Parent: 3, Name: "leaf", Start: 55, End: 65},
	}}
	got := s.bySelfFrom(0)
	want := map[string]selfTime{
		opSpanName: {Calls: 1, SelfNS: 30, WallNS: 100},
		"call":     {Calls: 2, SelfNS: 60, WallNS: 70},
		"leaf":     {Calls: 1, SelfNS: 10, WallNS: 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self time = %+v, want %+v", got, want)
	}
	o := s.traced()
	if o.ops != 1 || o.opUS != 0.1 || math.Abs(o.callUS["call"]-0.07) > 1e-12 || o.callUS["leaf"] != 0 {
		t.Errorf("traced summary = %+v", o)
	}
	var nilSpans *spans
	if id := nilSpans.start("x", 0, 0); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	nilSpans.end(0)
}
