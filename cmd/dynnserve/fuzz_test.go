package main

import (
	"math"
	"testing"
)

// FuzzParseTenants: no input makes parseTenants panic, and every tenant it
// accepts is within bounds: a named tenant with a positive finite rate, a
// quota inside the device, and no negative request count, SLO or queue
// bound.
func FuzzParseTenants(f *testing.F) {
	const gpuMem = 1 << 30
	for _, seed := range []string{
		"", "alpha:rate=2000,requests=60,slo=50ms,quota=0.5;beta:rate=2000,requests=60,slo=50ms,quota=0.5",
		"prio:rate=40,requests=200,slo=2s,quota=0.5;batch:rate=10,requests=50",
		"a:rate=1,maxqueue=4,seed=9", "a:rate=NaN", "a:rate=Inf", "a:rate=-1", "a:requests=5",
		"a:rate=1,quota=NaN", "a:rate=1,quota=-0.5", "a:rate=1,quota=1e300", "a:rate=1,slo=-1s",
		"a:rate=1,requests=-3", "a:rate=1,maxqueue=-1", "a:rate=1,seed=-1", ":rate=1", "a",
		"a:", "a:rate", "a:bogus=1", ";;", "a:rate=1;a:rate=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tcs, err := parseTenants(spec, gpuMem, 1)
		if err != nil {
			return
		}
		for _, tc := range tcs {
			switch {
			case tc.Name == "":
				t.Fatalf("parseTenants(%q) accepted an unnamed tenant", spec)
			case !(tc.RatePerSec > 0) || math.IsInf(tc.RatePerSec, 1):
				t.Fatalf("parseTenants(%q) accepted rate %v", spec, tc.RatePerSec)
			case tc.QuotaBytes < 0 || tc.QuotaBytes > gpuMem:
				t.Fatalf("parseTenants(%q) accepted quota %d bytes on a %d-byte device", spec, tc.QuotaBytes, gpuMem)
			case tc.Requests < 0 || tc.SLONS < 0 || tc.MaxQueue < 0:
				t.Fatalf("parseTenants(%q) accepted requests %d, slo %dns, maxqueue %d", spec, tc.Requests, tc.SLONS, tc.MaxQueue)
			}
		}
	})
}
