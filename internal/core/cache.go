package core

import "sync"

// mispredictCache is the mis-prediction cache (§IV-E), and with int keys the
// serving sample memo: one mutex-guarded map from a key (the matched-path
// key, or a sample ID) to the corrected ground-truth path key, with
// hit/miss/insert counters so cache effectiveness is observable per run.
// decide, its only reader and writer, runs serially within a dispatch; the
// mutex keeps concurrent RunSample callers on one engine safe.
type mispredictCache[K comparable] struct {
	mu                    sync.Mutex
	m                     map[K]string
	hits, misses, inserts int64
}

func newMispredictCache[K comparable]() *mispredictCache[K] {
	return &mispredictCache[K]{m: map[K]string{}}
}

// Lookup returns the corrected path key recorded for key, counting the
// outcome.
func (c *mispredictCache[K]) Lookup(key K) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Insert records the corrected path key for a mis-predicted key.
func (c *mispredictCache[K]) Insert(key K, corrected string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = corrected
	c.inserts++
}

// CacheStats reports the engine's mis-prediction cache behavior over its
// lifetime.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Inserts int64
	Entries int
}

// HitRate is hits / lookups, 0 when the cache was never consulted.
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Stats snapshots the counters and the number of distinct cached keys.
func (c *mispredictCache[K]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Inserts: c.inserts, Entries: len(c.m)}
}
