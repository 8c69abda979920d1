package dynnoffload

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
)

var updateFacade = flag.Bool("update", false, "rewrite the facade serving digests under testdata/golden")

const facadeDigestPath = "testdata/golden/facade_digests.txt"

// facadeDigestFaults are the fault settings of the facade digest matrix:
// fault-free and a deterministic 20% injection rate.
var facadeDigestFaults = []FaultConfig{{}, {Seed: 41, Rate: 0.2}}

// facadeDigestRates are the per-tenant offered loads (requests/s): below and
// far above the fixture's knee.
var facadeDigestRates = []float64{30, 300}

// facadeDigest is a SHA-256 over a report's JSON followed by its rendered
// span list.
func facadeDigest(t *testing.T, rep *ServeReport, tr *Tracer) string {
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

// TestFacadeServeDigests pins System.Serve reports and one-GPU Cluster.Serve
// reports to checked-in SHA-256 digests over {fault-free, faulted} x rates.
// The fixture is a zoo Tree-LSTM at half its peak footprint, so its paths
// migrate and the faulted leg consults the fault stream; the test asserts
// that the faulted digests differ from the fault-free ones, and that
// System.Serve and one-GPU Cluster.Serve digests are equal. Regenerate with
// -update only for a change that is meant to move serving outcomes.
func TestFacadeServeDigests(t *testing.T) {
	model, err := ZooModel("Tree-LSTM", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	corpus := GenerateSamples(5, 260, 8, 48)
	got := map[string]string{}
	for _, fc := range facadeDigestFaults {
		sys, err := NewSystem(model,
			WithMemoryPressure(0.5),
			WithPilotConfig(PilotConfig{Neurons: 48, Epochs: 6, Seed: 3}),
			WithFaultInjection(fc),
			WithWorkers(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.TrainPilot(corpus[:200]); err != nil {
			t.Fatal(err)
		}
		c, err := sys.Cluster()
		if err != nil {
			t.Fatal(err)
		}
		half := sys.Platform().GPU.MemBytes / 2
		for _, rate := range facadeDigestRates {
			cfg := func() ServeConfig {
				return ServeConfig{
					Tenants: []ServeTenant{
						{Name: "alpha", Requests: 30, RatePerSec: rate, Seed: 11, QuotaBytes: half, SLONS: 5e8},
						{Name: "beta", Requests: 30, RatePerSec: rate, Seed: 23, QuotaBytes: half, SLONS: 5e8},
					},
					Flight: FlightConfig{Events: 256},
					Tracer: NewTracer(),
				}
			}
			sc := cfg()
			rep, err := sys.Serve(corpus[200:], sc)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("system/faults=%v/rate=%v", fc.Rate, rate)] = facadeDigest(t, rep, sc.Tracer)

			cc := ClusterConfig{Config: cfg()}
			crep, err := c.Serve(corpus[200:], cc)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("cluster1/faults=%v/rate=%v", fc.Rate, rate)] = facadeDigest(t, &crep.Report, cc.Tracer)
		}
	}
	for _, path := range []string{"system", "cluster1"} {
		for _, rate := range facadeDigestRates {
			free := got[fmt.Sprintf("%s/faults=0/rate=%v", path, rate)]
			faulted := got[fmt.Sprintf("%s/faults=%v/rate=%v", path, facadeDigestFaults[1].Rate, rate)]
			if free == faulted {
				t.Errorf("%s rate=%v: faulted digest equals the fault-free one; the fixture no longer migrates", path, rate)
			}
		}
	}
	// System.Serve is the one-GPU Cluster.Serve: same report, same spans.
	for _, fc := range facadeDigestFaults {
		for _, rate := range facadeDigestRates {
			key := fmt.Sprintf("faults=%v/rate=%v", fc.Rate, rate)
			if got["system/"+key] != got["cluster1/"+key] {
				t.Errorf("%s: System.Serve and one-GPU Cluster.Serve digests differ", key)
			}
		}
	}
	checkFacadeDigests(t, got)
}

// checkFacadeDigests compares got with the digest file, or rewrites the file
// under -update.
func checkFacadeDigests(t *testing.T, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)

	if *updateFacade {
		var sb strings.Builder
		for _, k := range names {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(facadeDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(facadeDigestPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", facadeDigestPath)
		return
	}

	f, err := os.Open(facadeDigestPath)
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
		t.Errorf("digest file has %d entries, the matrix produces %d", len(want), len(got))
	}
	for _, k := range names {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, want %s", k, got[k], want[k])
		}
	}
}
