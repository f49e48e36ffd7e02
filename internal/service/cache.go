package service

import (
	"sync"
	"sync/atomic"
)

// CacheStats aggregates hit/miss/eviction accounting across all shards.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// cacheShard is one independently locked LRU segment.
type cacheShard struct {
	mu  sync.Mutex
	lru *lru[string, *JobResult]
}

// Cache is a sharded LRU keyed by request digest (log digest + canonical
// constraint set + canonical config; see requestKey). Sharding by key hash
// keeps lock contention bounded under concurrent serving: each lookup locks
// only 1/numShards of the cache. Hit/miss/eviction counters are atomic and
// exact.
type Cache struct {
	shards    []*cacheShard
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

const defaultCacheShards = 16

// NewCache builds a cache holding up to capacity results split over
// shards; capacity <= 0 disables caching (every Get misses). Shard
// capacities sum to exactly the configured capacity (the remainder goes
// one-each to the first shards), so /stats reports what the operator set.
func NewCache(capacity int) *Cache {
	n := defaultCacheShards
	if capacity > 0 && capacity < n {
		n = 1 // tiny caches keep exact LRU order in a single shard
	}
	c := &Cache{shards: make([]*cacheShard, n)}
	evicted := func(*JobResult) { c.evictions.Add(1) }
	for i := range c.shards {
		per := 0
		if capacity > 0 {
			per = capacity / n
			if i < capacity%n {
				per++
			}
		}
		c.shards[i] = &cacheShard{lru: newLRU[string](per, evicted)}
	}
	return c
}

// shard picks the key's shard with an inlined FNV-1a over the key bytes —
// no hasher allocation on the per-lookup hot path.
func (c *Cache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// Get returns the cached result for the key, bumping its recency.
func (c *Cache) Get(key string) (*JobResult, bool) {
	v, ok := c.getQuiet(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// getQuiet is Get without touching the hit/miss counters, for the
// service's under-lock recheck: the same logical request already counted
// its miss on the lock-free first lookup.
func (c *Cache) getQuiet(key string) (*JobResult, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.get(key)
}

// Put inserts or refreshes a result, evicting the least recently used entry
// of the key's shard when that shard is full.
func (c *Cache) Put(key string, v *JobResult) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lru.put(key, v)
}

// Len reports the number of cached entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.len()
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	capTotal := 0
	for _, s := range c.shards {
		capTotal += s.lru.cap
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  capTotal,
	}
}
