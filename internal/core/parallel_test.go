package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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
// clock on multi-core hosts: 2 workers against 1 from 2 CPUs up, and 4
// against 1 from 4 CPUs up. Each side is timed as the fastest of three runs
// of 20 fresh-engine epochs, in up to three attempts. Below 2 CPUs it skips:
// goroutines time-slicing one core cannot beat a single worker, and the
// determinism tests above already cover correctness there.
//
// On a 2-vCPU host the pool reads 1.21–1.31x at 2 workers (1.37–1.48x under
// -race), and a pool that keeps one core feeding its workers reads below
// 1.0x; the 1.1x floor sits between. There the two workers need every core,
// which another test binary often holds, so a 2-worker attempt counts only
// when the host gives both cores to plain goroutines just before and just
// after it (see hostSpeedup); when no attempt does, the subtest skips. The
// 4-worker check counts every attempt and fails below 1.5x.
func TestParallelEpochSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("GOMAXPROCS=%d: need >=2 CPUs for a meaningful speedup check", runtime.GOMAXPROCS(0))
	}
	_, test, p, plat := testBench(t)

	epochs := func(workers int) time.Duration {
		t0 := time.Now()
		for k := 0; k < 20; k++ {
			eng := NewEngine(DefaultConfig(plat), p)
			if _, err := eng.ParallelRunEpoch(test, EpochOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	epochs(1) // warm up allocator and branch predictors
	for _, c := range []struct {
		workers   int
		min       float64
		calibrate bool // count an attempt only when the host has the cores free
	}{{2, 1.1, true}, {4, 1.5, false}} {
		t.Run(fmt.Sprintf("workers=%d", c.workers), func(t *testing.T) {
			if runtime.GOMAXPROCS(0) < c.workers {
				t.Skipf("GOMAXPROCS=%d: need >=%d CPUs", runtime.GOMAXPROCS(0), c.workers)
			}
			hostFree := func(attempt int, when string) bool {
				if !c.calibrate {
					return true
				}
				host := hostSpeedup(c.workers)
				if host < 0.8*float64(c.workers) {
					t.Logf("attempt %d: host gives only %.2fx on %d goroutines %s; not counted", attempt, host, c.workers, when)
					return false
				}
				return true
			}
			measured := false
			for attempt := 0; attempt < 3; attempt++ {
				if !hostFree(attempt, "before") {
					continue
				}
				serial, par := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
				for run := 0; run < 3; run++ {
					serial = min(serial, epochs(1))
					par = min(par, epochs(c.workers))
				}
				if !hostFree(attempt, "after") {
					continue
				}
				speedup := float64(serial) / float64(par)
				t.Logf("attempt %d: %d-worker epochs %.2fx faster than 1 worker", attempt, c.workers, speedup)
				if speedup >= c.min {
					return
				}
				measured = true
			}
			if !measured {
				t.Skipf("host never had %d free CPUs", c.workers)
			}
			t.Errorf("%d-worker epoch below %.2fx of 1 worker", c.workers, c.min)
		})
	}
}

// spinSink keeps hostSpeedup's loop from being optimized away.
var spinSink atomic.Uint64

// hostSpeedup is the wall-clock speedup the host gives right now to a fixed
// CPU-bound loop split over workers plain goroutines, against one goroutine
// running all of it: about workers on idle cores, about 1 when other work
// holds them.
func hostSpeedup(workers int) float64 {
	const iters = 1 << 22
	spin := func(n int) {
		x := 1.0
		for i := 0; i < n; i++ {
			x = x*0.999999 + 1e-6
		}
		spinSink.Store(math.Float64bits(x))
	}
	t0 := time.Now()
	spin(workers * iters)
	serial := time.Since(t0)
	t0 = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spin(iters)
		}()
	}
	wg.Wait()
	return float64(serial) / float64(time.Since(t0))
}

// TestFanOut: every index in [0, n) runs exactly once at any pool size,
// including pools larger than n.
func TestFanOut(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 1000} {
		for _, workers := range []int{1, 2, 3, 8} {
			runs := make([]atomic.Int32, n)
			fanOut(n, workers, func(i int) { runs[i].Add(1) })
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
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
