package faults

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// specOf renders cfg in ParseSpec's grammar, omitting an unset stall factor.
func specOf(cfg Config) string {
	parts := []string{
		"seed=" + strconv.FormatUint(cfg.Seed, 10),
		"rate=" + strconv.FormatFloat(cfg.Rate, 'g', -1, 64),
	}
	if cfg.StallFactor != 0 {
		parts = append(parts, "stall="+strconv.FormatInt(cfg.StallFactor, 10))
	}
	return strings.Join(parts, ",")
}

// FuzzParseSpec: no input makes ParseSpec panic, every accepted spec has a
// rate in [0, 1] and a stall factor that is unset or at least 1, and it
// re-parses from its rendered form to the same Config.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"", "seed=9,rate=0.25,stall=6", "rate=0.5, seed=3", "rate=1e-3",
		"rate=0x1p-2", "rate=-0", "rate=NaN", "rate=Inf", "stall=0", "seed=-1",
		"rate", "=", ",", "seed=1,seed=2", "bogus=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if math.IsNaN(cfg.Rate) || cfg.Rate < 0 || cfg.Rate > 1 {
			t.Fatalf("ParseSpec(%q) accepted rate %v", spec, cfg.Rate)
		}
		if cfg.StallFactor < 0 {
			t.Fatalf("ParseSpec(%q) accepted stall factor %d", spec, cfg.StallFactor)
		}
		again, err := ParseSpec(specOf(cfg))
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, whose spec %q does not re-parse: %v", spec, cfg, specOf(cfg), err)
		}
		if again != cfg {
			t.Fatalf("ParseSpec(%q) = %+v, but its spec %q re-parses to %+v", spec, cfg, specOf(cfg), again)
		}
	})
}
