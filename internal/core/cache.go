package core

import (
	"sync"
	"sync/atomic"
)

// cacheShards is the stripe count of the mis-prediction cache. 32 stripes
// keep contention negligible at worker counts far beyond any host we target
// while costing ~1KB of mutexes.
const cacheShards = 32

type cacheShard struct {
	mu sync.Mutex
	m  map[string]string
}

// shardedCache is the concurrency-safe mis-prediction cache (§IV-E): a
// mutex-striped map from cache key (the matched-path / quantized-output key)
// to the corrected ground-truth path key, with hit/miss/insert counters so
// cache effectiveness is observable per run.
type shardedCache struct {
	shards  [cacheShards]cacheShard
	hits    atomic.Int64
	misses  atomic.Int64
	inserts atomic.Int64
}

func newShardedCache() *shardedCache {
	c := &shardedCache{}
	for i := range c.shards {
		c.shards[i].m = map[string]string{}
	}
	return c
}

// shardOf hashes the key with FNV-1a and picks a stripe.
func (c *shardedCache) shardOf(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%cacheShards]
}

// Lookup returns the corrected path key recorded for key, counting the
// outcome.
func (c *shardedCache) Lookup(key string) (string, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Insert records the corrected path key for a mis-predicted cache key.
func (c *shardedCache) Insert(key, corrected string) {
	s := c.shardOf(key)
	s.mu.Lock()
	s.m[key] = corrected
	s.mu.Unlock()
	c.inserts.Add(1)
}

// Len returns the number of distinct cached keys.
func (c *shardedCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
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

func (c *shardedCache) Stats() CacheStats {
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Inserts: c.inserts.Load(),
		Entries: c.Len(),
	}
}
