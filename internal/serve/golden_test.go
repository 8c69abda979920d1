package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dynnoffload/internal/core"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/obsv"
)

var update = flag.Bool("update", false, "rewrite the serving digests under testdata/golden")

const (
	digestPath         = "testdata/golden/digests.txt"
	learningDigestPath = "testdata/golden/learning_digests.txt"
)

// digest is a SHA-256 over a run's JSON report followed by its rendered span
// list: any change to an admission, scheduling, attribution, flight or trace
// decision moves it.
func digest(t *testing.T, rep any, tr *obsv.Tracer) string {
	t.Helper()
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(js)
	for _, sp := range tr.Spans() {
		// The digests were recorded when a span also ended in the wall-clock
		// fields Worker and WallNS, always zero in a simulated-time trace;
		// render them as %+v did then.
		fmt.Fprintf(h, "\n%s Worker:0 WallNS:0}", strings.TrimSuffix(fmt.Sprintf("%+v", sp), "}"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestFaults are the fault settings of the digest matrices: fault-free and
// a deterministic 25% injection rate.
var digestFaults = []faults.Config{{}, {Seed: 41, Rate: 0.25}}

// digestRates are the offered loads (requests/s per tenant): nearly idle,
// moderate, and saturated.
var digestRates = []float64{200, 4000, 20000}

func digestEngineConfig(b *bench, fc faults.Config) core.Config {
	ecfg := core.DefaultConfig(b.plat)
	if fc.Rate > 0 {
		ecfg.Faults = faults.New(fc)
	}
	return ecfg
}

// serveDigests runs one replica over {online off/on} x faults x rates with a
// flight recorder and a serial-layout tracer.
func serveDigests(t *testing.T, b *bench) map[string]string {
	out := map[string]string{}
	for _, learn := range []bool{false, true} {
		for _, fc := range digestFaults {
			for _, rate := range digestRates {
				cfg := twoTenants(b, rate, 30)
				cfg.Flight = obsv.FlightConfig{Events: 256}
				cfg.Tracer = obsv.NewTracer()
				if learn {
					cfg.Online = onlineConfig(false)
				}
				rep, err := b.run(digestEngineConfig(b, fc), cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("run/online=%v/faults=%v/rate=%v", learn, fc.Rate, rate)
				out[name] = digest(t, rep, cfg.Tracer)
			}
		}
	}
	return out
}

// clusterDigests runs learning-free RunCluster over replicas x {static,
// elastic} x faults x rates with a flight recorder and an absolute tracer.
func clusterDigests(t *testing.T, b *bench) map[string]string {
	out := map[string]string{}
	for _, n := range []int{1, 2, 4} {
		for _, elastic := range []bool{false, true} {
			for _, fc := range digestFaults {
				for _, rate := range digestRates {
					cfg := ClusterConfig{Config: twoTenants(b, rate, 30)}
					if elastic {
						cfg.MinReplicas = 1
						cfg.ScaleUpQueueNS = 1e5
						cfg.ScaleWindow = 4
						cfg.ScaleDownIdleNS = 5e6
					}
					cfg.Flight = obsv.FlightConfig{Events: 256}
					cfg.Tracer = obsv.NewTracer(obsv.WithAbsoluteTime())
					rep, err := RunCluster(b.clusterBackend(n, digestEngineConfig(b, fc)), cfg)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("cluster/n=%d/elastic=%v/faults=%v/rate=%v", n, elastic, fc.Rate, rate)
					out[name] = digest(t, rep, cfg.Tracer)
				}
			}
		}
	}
	return out
}

// learningClusterDigests runs RunCluster with per-tenant online learning
// over replicas x rates, with a flight recorder and an absolute tracer. The
// sample and resolution memos are on, with one resolution memo shared by the
// replicas as Cluster.Serve builds it. A training interval of 2 refines the
// shared pilot and every warm tenant adapter in place many times per run,
// and requests recur from the 50-example pool, so a request served again
// after a refine must be resolved by the refined pilot, not by what it
// predicted before. The matrix is fault-free: the fixture's paths fit the
// device, so the faulted leg of the matrices above equals the fault-free one.
func learningClusterDigests(t *testing.T, b *bench) map[string]string {
	out := map[string]string{}
	for _, n := range []int{2, 4} {
		for _, rate := range digestRates {
			cfg := ClusterConfig{Config: twoTenants(b, rate, 60)}
			cfg.Online = onlineConfig(false)
			cfg.Online.TrainingInterval = 2
			cfg.Flight = obsv.FlightConfig{Events: 256}
			cfg.Tracer = obsv.NewTracer(obsv.WithAbsoluteTime())
			ecfg := core.DefaultConfig(b.plat)
			ecfg.MemoizeSamples = true
			ecfg.Resolutions = core.NewResolutionMemo() // shared by the replicas
			rep, err := RunCluster(b.clusterBackend(n, ecfg), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if on := rep.Total.Online; on == nil || on.Retrains < 2 || on.AdapterTenants == 0 {
				t.Fatalf("n=%d rate=%v: online stats %+v, want adapters refined at least twice", n, rate, on)
			}
			name := fmt.Sprintf("learning/n=%d/rate=%v", n, rate)
			out[name] = digest(t, rep, cfg.Tracer)
		}
	}
	return out
}

// TestServeDigests pins every serving report, flight snapshot and trace of
// the single-device matrix and of the learning-free cluster matrix to
// checked-in SHA-256 digests. Regenerate with -update only for a change that
// is meant to move serving outcomes.
func TestServeDigests(t *testing.T) {
	b := testServeBench(t)
	got := serveDigests(t, b)
	for k, v := range clusterDigests(t, b) {
		got[k] = v
	}
	checkDigests(t, digestPath, got)
}

// TestLearningClusterDigests pins the learning-on cluster matrix the same
// way, in its own file.
func TestLearningClusterDigests(t *testing.T) {
	checkDigests(t, learningDigestPath, learningClusterDigests(t, testServeBench(t)))
}

// checkDigests compares got with the digest file at path, or rewrites the
// file under -update.
func checkDigests(t *testing.T, path string, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)

	if *update {
		var sb strings.Builder
		for _, k := range names {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing digest file (regenerate with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("digest file has %d entries, the matrices produce %d", len(want), len(got))
	}
	for _, k := range names {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, want %s", k, got[k], want[k])
		}
	}
}
