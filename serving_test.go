package dynnoffload

import (
	"errors"
	"reflect"
	"testing"
)

// TestSystemServe exercises the public serving flow: train a pilot, offer two
// tenant streams against the sample pool, and check the report's accounting
// and its replay determinism across worker counts.
func TestSystemServe(t *testing.T) {
	model := NewTreeLSTM(TreeLSTMConfig{Levels: 4, Hidden: 64, SeqLen: 8, Batch: 4, Seed: 1})
	plat := RTXPlatform().WithMemory(MiB(16))
	sys, err := NewSystem(model,
		WithPlatform(plat),
		WithPilotConfig(PilotConfig{Neurons: 48, Epochs: 6, Seed: 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	corpus := GenerateSamples(5, 500, 8, 32)
	if _, err := sys.TrainPilot(corpus[:400]); err != nil {
		t.Fatal(err)
	}

	cfg := ServeConfig{
		Tenants: []ServeTenant{
			{Name: "alpha", Requests: 30, RatePerSec: 3000, Seed: 11, QuotaBytes: plat.GPU.MemBytes / 2, SLONS: 5e7},
			{Name: "beta", Requests: 30, RatePerSec: 3000, Seed: 23, QuotaBytes: plat.GPU.MemBytes / 2, SLONS: 5e7},
		},
	}
	run := func(workers int) *ServeReport {
		c := cfg
		c.Workers = workers
		rep, err := sys.Serve(corpus[400:], c)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run(1)
	if got := rep.Total.Completed + rep.Total.Shed + rep.Total.QuotaShed; got != rep.Total.Arrivals || rep.Total.Arrivals != 60 {
		t.Errorf("request conservation broken: %+v", rep.Total)
	}
	if rep.Total.Completed == 0 || rep.MakespanNS <= 0 {
		t.Errorf("nothing served: %+v", rep.Total)
	}
	if len(rep.Tenants) != 2 || rep.Tenants[0].Name != "alpha" {
		t.Errorf("tenant reports wrong: %+v", rep.Tenants)
	}
	if again := run(4); !reflect.DeepEqual(rep, again) {
		t.Errorf("serving replay diverged across worker counts:\nwant %+v\ngot  %+v", rep, again)
	}

	// Serving must not touch the training engine's cache state.
	if s := sys.engine.CacheStats(); s.Hits != 0 || s.Inserts != 0 {
		t.Errorf("serving leaked into the training engine cache: %+v", s)
	}
}

func TestSystemServeNeedsPilot(t *testing.T) {
	model := NewTreeLSTM(TreeLSTMConfig{Levels: 3, Hidden: 32, SeqLen: 8, Batch: 2, Seed: 1})
	sys, err := NewSystem(model, WithPlatform(RTXPlatform().WithMemory(MiB(16))))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Serve(GenerateSamples(2, 10, 8, 16), ServeConfig{Tenants: []ServeTenant{{Name: "a", Requests: 1, RatePerSec: 1}}})
	if !errors.Is(err, ErrPilotNotTrained) {
		t.Errorf("err = %v, want ErrPilotNotTrained", err)
	}
}
