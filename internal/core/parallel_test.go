package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dynnoffload/internal/obsv"
	"dynnoffload/internal/pilot"
)

// TestParallelEpochDeterminism: ParallelRunEpoch must produce the same epoch
// aggregates as serial RunEpoch at any worker count — the mis-prediction
// cache's serial decision pass keeps cache evolution order-independent of scheduling.
func TestParallelEpochDeterminism(t *testing.T) {
	_, test, p, plat := testBench(t)

	serial := NewEngine(DefaultConfig(plat), p)
	want, err := serial.RunEpoch(test)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 8} {
		eng := NewEngine(DefaultConfig(plat), p)
		got, err := eng.ParallelRunEpoch(test, EpochOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Samples != want.Samples ||
			got.Mispredictions != want.Mispredictions ||
			got.CacheHits != want.CacheHits {
			t.Errorf("workers=%d: counts diverge: got %d/%d/%d want %d/%d/%d",
				workers, got.Samples, got.Mispredictions, got.CacheHits,
				want.Samples, want.Mispredictions, want.CacheHits)
		}
		if got.Breakdown != want.Breakdown {
			t.Errorf("workers=%d: breakdown diverges:\ngot  %+v\nwant %+v", workers, got.Breakdown, want.Breakdown)
		}
		if eng.CacheStats().Entries != serial.CacheStats().Entries {
			t.Errorf("workers=%d: cache size %d, serial %d", workers, eng.CacheStats().Entries, serial.CacheStats().Entries)
		}
	}
}

// TestParallelEpochRecorder checks the observability surface fed by the
// parallel runtime.
func TestParallelEpochRecorder(t *testing.T) {
	_, test, p, plat := testBench(t)
	eng := NewEngine(DefaultConfig(plat), p)
	rec := obsv.NewRecorder("core-test", 4, nil)
	rep, err := eng.ParallelRunEpoch(test, EpochOptions{Workers: 4, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	stats := rec.Finish()
	if stats.Samples != int64(rep.Samples) {
		t.Errorf("recorder samples %d != report %d", stats.Samples, rep.Samples)
	}
	if stats.Mispredicts != int64(rep.Mispredictions) || stats.CacheHits != int64(rep.CacheHits) {
		t.Errorf("recorder outcome counts diverge from report: %+v vs %+v", stats, rep)
	}
	for _, phase := range []string{PhasePilot, PhaseMapping, PhaseSimulate} {
		if stats.Phases[phase].Count != int64(rep.Samples) {
			t.Errorf("phase %s count = %d, want %d", phase, stats.Phases[phase].Count, rep.Samples)
		}
	}
	if stats.SamplesPerSec <= 0 {
		t.Error("no throughput derived")
	}
}

// sampleDurs is a Sink that keeps each sample event's dur_ns by sample index.
type sampleDurs struct {
	mu   sync.Mutex
	durs map[int]int64
}

func (s *sampleDurs) Emit(ev obsv.Event) {
	if ev.Type != obsv.EventSample {
		return
	}
	s.mu.Lock()
	s.durs[ev.Sample] = ev.DurNS
	s.mu.Unlock()
}

// TestParallelEpochSampleEventsReplay: a sample event's dur_ns is the
// sample's simulated time, so a recorded run replays it exactly at any
// worker count — no host stopwatch reaches it.
func TestParallelEpochSampleEventsReplay(t *testing.T) {
	_, test, p, plat := testBench(t)
	run := func(workers int) map[int]int64 {
		sink := &sampleDurs{durs: map[int]int64{}}
		rec := obsv.NewRecorder("replay", workers, sink)
		eng := NewEngine(DefaultConfig(plat), p)
		if _, err := eng.ParallelRunEpoch(test, EpochOptions{Workers: workers, Recorder: rec}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rec.Finish()
		if len(sink.durs) != len(test) {
			t.Fatalf("workers=%d: %d sample events, want %d", workers, len(sink.durs), len(test))
		}
		return sink.durs
	}
	want := run(1)
	got := run(4)
	for i := range test {
		if got[i] != want[i] || want[i] <= 0 {
			t.Errorf("sample %d: dur_ns %d at 4 workers, %d at 1", i, got[i], want[i])
		}
	}
}

func TestParallelEpochRequiresPilot(t *testing.T) {
	_, test, _, plat := testBench(t)
	eng := NewEngine(DefaultConfig(plat), nil)
	if _, err := eng.ParallelRunEpoch(test, EpochOptions{}); !errors.Is(err, ErrPilotNotTrained) {
		t.Errorf("err = %v, want ErrPilotNotTrained", err)
	}
	if _, err := eng.RunSample(test[0]); !errors.Is(err, ErrPilotNotTrained) {
		t.Errorf("RunSample err = %v, want ErrPilotNotTrained", err)
	}
}

func TestParallelEpochEmpty(t *testing.T) {
	_, _, p, plat := testBench(t)
	eng := NewEngine(DefaultConfig(plat), p)
	rep, err := eng.ParallelRunEpoch(nil, EpochOptions{Workers: 8})
	if err != nil || rep.Samples != 0 {
		t.Errorf("empty epoch: %+v, %v", rep, err)
	}
}

// TestShardedCacheRace hammers the mis-prediction cache from 16 goroutines;
// run under `go test -race` this proves its locking sound.
func TestShardedCacheRace(t *testing.T) {
	c := newMispredictCache[string]()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("path-%d", i%37)
				if _, ok := c.Lookup(key); !ok {
					c.Insert(key, fmt.Sprintf("truth-%d-%d", g, i))
				}
				if i%97 == 0 {
					_ = c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries == 0 || st.Entries > 37 {
		t.Errorf("entries = %d, want 1..37", st.Entries)
	}
	if st.Hits+st.Misses != 16*500 {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, 16*500)
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Errorf("hit rate = %v", st.HitRate())
	}
}

// TestConcurrentRunSample: direct concurrent use of RunSample must be safe
// (individual cache-hit flags may vary with interleaving; totals must not
// corrupt).
func TestConcurrentRunSample(t *testing.T) {
	_, test, p, plat := testBench(t)
	eng := NewEngine(DefaultConfig(plat), p)
	var wg sync.WaitGroup
	errs := make(chan error, len(test))
	for i := range test {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := eng.RunSample(test[i]); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestParallelEpochSpeedup checks that the worker pool actually buys wall
// clock on multi-core hosts. Skipped below 4 CPUs: goroutines time-slicing
// one core cannot beat a single worker, and the determinism tests above
// already cover correctness there.
func TestParallelEpochSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: need >=4 CPUs for a meaningful speedup check", runtime.GOMAXPROCS(0))
	}
	_, test, p, plat := testBench(t)

	epoch := func(workers int) time.Duration {
		eng := NewEngine(DefaultConfig(plat), p)
		t0 := time.Now()
		if _, err := eng.ParallelRunEpoch(test, EpochOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	epoch(1) // warm up allocator and branch predictors
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		serial := epoch(1)
		par := epoch(4)
		if s := float64(serial) / float64(par); s > best {
			best = s
		}
		if best >= 1.5 {
			return
		}
	}
	t.Errorf("4-worker epoch only %.2fx faster than 1 worker, want >=1.5x", best)
}

// TestEpochErrorContract: RunEpoch, ParallelRunEpoch at 1 and 4 workers and
// RunBatch share one error contract. A sample that fails in the serial
// decision pass (an unknown truth path) stops it there: every entry point
// returns a zero report (nil results) and the same error, and the
// mis-prediction cache holds exactly the decisions of the samples before
// it. (No simulation failure is planted: once a sample passes the capacity
// check, evict-and-retry always makes room.)
func TestEpochErrorContract(t *testing.T) {
	var b *propBench
	for _, pb := range propModels(t) {
		if pb.name == "Tree-CNN" {
			b = pb
		}
	}
	if b == nil {
		t.Fatal("no Tree-CNN bench")
	}
	type outcome struct {
		rep   EpochReport
		err   error
		cache CacheStats
	}
	runAll := func(cfg Config, exs []*pilot.Example) []outcome {
		var out []outcome
		for _, workers := range []int{0, 1, 4, -4} {
			eng := NewEngine(cfg, b.p)
			var o outcome
			switch {
			case workers == 0:
				o.rep, o.err = eng.RunEpoch(exs)
			case workers < 0:
				var rs []SampleResult
				rs, o.err = eng.RunBatch(exs, EpochOptions{Workers: -workers})
				if rs != nil {
					t.Errorf("RunBatch returned %d results with error %v", len(rs), o.err)
				}
			default:
				o.rep, o.err = eng.ParallelRunEpoch(exs, EpochOptions{Workers: workers})
			}
			o.cache = eng.CacheStats()
			out = append(out, o)
		}
		return out
	}
	check := func(name string, got []outcome, want error) {
		for i, o := range got {
			if o.rep != (EpochReport{}) {
				t.Errorf("%s run %d: non-zero report after error: %+v", name, i, o.rep)
			}
			if !errors.Is(o.err, want) {
				t.Errorf("%s run %d: err = %v, want %v", name, i, o.err, want)
			}
			if o.err != nil && got[0].err != nil && o.err.Error() != got[0].err.Error() {
				t.Errorf("%s run %d: err %q, RunEpoch's %q", name, i, o.err, got[0].err)
			}
			if o.cache != got[0].cache {
				t.Errorf("%s run %d: cache %+v, RunEpoch's %+v", name, i, o.cache, got[0].cache)
			}
		}
	}

	// Decision failure at index k.
	const k = 9
	exs := append([]*pilot.Example(nil), b.test...)
	bad := *exs[k]
	bad.TruthKey = "no-such-path"
	exs[k] = &bad
	got := runAll(DefaultConfig(b.plat), exs)
	check("decide", got, ErrUnknownPath)
	prefix := NewEngine(DefaultConfig(b.plat), b.p)
	if _, err := prefix.RunEpoch(exs[:k]); err != nil {
		t.Fatal(err)
	}
	// The failing sample's own cache lookup counts; it inserts nothing.
	if c, want := got[0].cache, prefix.CacheStats(); c.Inserts != want.Inserts || c.Entries != want.Entries {
		t.Errorf("decide: cache %+v, want the first %d samples' inserts and entries %+v", c, k, want)
	}
}
