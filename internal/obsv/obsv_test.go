package obsv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, ns := range []int64{100, 200, 400, 800, 100_000} {
		h.Observe(ns)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("count = %d", s.Count)
	}
	if s.SumNS != 101_500 {
		t.Errorf("sum = %d", s.SumNS)
	}
	if s.MaxNS != 100_000 {
		t.Errorf("max = %d", s.MaxNS)
	}
	if s.MeanNS != 101_500/5 {
		t.Errorf("mean = %d", s.MeanNS)
	}
	// P50 bucket upper bound must bracket the median (400ns → bucket 2^9).
	if s.P50NS < 400 || s.P50NS > 1024 {
		t.Errorf("p50 = %d", s.P50NS)
	}
	if s.P99NS < 100_000 {
		t.Errorf("p99 = %d, want >= max observation's bucket", s.P99NS)
	}
}

func TestHistogramNegativeDuration(t *testing.T) {
	var h Histogram
	h.Observe(-5) // defensive: clock skew must not panic or corrupt
	if s := h.Snapshot(); s.Count != 1 || s.SumNS != 0 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestRecorderSnapshot(t *testing.T) {
	r := NewRecorder("test", 4, nil)
	for i := 0; i < 10; i++ {
		r.ObservePhase("pilot", int64(1000+i))
		r.ObserveSample(i, i%5 == 0, i%2 == 0, 2000)
	}
	s := r.Finish()
	if s.Samples != 10 || s.Mispredicts != 2 || s.CacheHits != 5 {
		t.Errorf("stats = %+v", s)
	}
	if s.MispredictRate != 0.2 || s.CacheHitRate != 0.5 {
		t.Errorf("rates = %v %v", s.MispredictRate, s.CacheHitRate)
	}
	if s.SamplesPerSec <= 0 {
		t.Error("samples/sec not derived")
	}
	if s.Phases["pilot"].Count != 10 {
		t.Errorf("phase count = %d", s.Phases["pilot"].Count)
	}
	if len(s.Phases) != 1 {
		t.Errorf("phases = %v, want only pilot", s.Phases)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder("conc", 8, NewJSONLSink(&lockedBuffer{}))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.ObservePhase("simulate", int64(i))
				r.ObserveSample(g*200+i, i%3 == 0, false, int64(i))
			}
		}(g)
	}
	wg.Wait()
	if s := r.Finish(); s.Samples != 1600 {
		t.Errorf("samples = %d", s.Samples)
	}
}

// lockedBuffer is a goroutine-safe bytes.Buffer for the concurrency test.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func TestJSONLSinkSchema(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder("schema", 2, NewJSONLSink(&buf))
	r.ObserveSample(7, true, true, 1234)
	r.Finish()

	sc := bufio.NewScanner(&buf)
	var types []string
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
		if ev.Type == EventSample && (ev.Sample != 7 || !ev.Mispredicted || !ev.CacheHit) {
			t.Errorf("sample event = %+v", ev)
		}
		if ev.Type == EventRunEnd && (ev.Stats == nil || ev.Stats.Samples != 1) {
			t.Errorf("run_end missing stats: %+v", ev)
		}
	}
	if want := []string{EventRunStart, EventSample, EventRunEnd}; strings.Join(types, ",") != strings.Join(want, ",") {
		t.Errorf("event order = %v", types)
	}
}
