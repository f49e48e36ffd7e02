package service

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gecco/internal/constraints"
	"gecco/internal/core"
)

// cacheRequest is a request whose result-cache key is its own for each
// name: only its log digest differs from the others'.
func cacheRequest(name string) Request {
	return Request{digest: name, Constraints: constraints.NewSet()}
}

// cacheKey is cacheRequest(name)'s result-cache key.
func cacheKey(name string) string {
	return requestKey(name, constraints.NewSet(), core.Config{})
}

// touch looks name's request up in the result cache, as a request does, and
// puts a result under its key on a miss, as a finished job does.
func touch(svc *Service, name string) {
	req := cacheRequest(name)
	if key, _, ok := svc.lookup(&req); !ok {
		svc.cache.put(key, &JobResult{})
	}
}

// TestCacheEvictionOrderUnderPressure fills the result cache far past
// capacity and checks that exactly the least-recently-used entries fall out
// at every step: survivors are the most recent `capacity` touched keys, in
// recency order. Each letter of the sequence is a block of capacity/4 keys
// touched in a row, so every capacity replays the same eviction order.
func TestCacheEvictionOrderUnderPressure(t *testing.T) {
	for _, capacity := range []int{4, 16, 64, 256} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			svc := New(Options{CacheCapacity: capacity})
			t.Cleanup(svc.Close)
			block := capacity / 4
			names := func(letter string) []string {
				out := make([]string, block)
				for i := range out {
					out[i] = fmt.Sprintf("%s%d", letter, i)
				}
				return out
			}
			// Twelve touches, with re-touches mixed in so recency differs
			// from insertion order.
			sequence := []string{"a", "b", "c", "d", "a", "e", "f", "b", "g", "h", "e", "i"}
			for _, letter := range sequence {
				for _, name := range names(letter) {
					touch(svc, name)
				}
			}
			// Recency after the sequence (most recent first): i, e, h, g —
			// then b was evicted by h's insertion, etc.
			for _, letter := range []string{"a", "b", "c", "d", "f"} {
				for _, name := range names(letter) {
					if _, ok := svc.cache.get(cacheKey(name)); ok {
						t.Errorf("key %q should have been evicted", name)
					}
				}
			}
			for _, letter := range []string{"i", "e", "h", "g"} {
				for _, name := range names(letter) {
					if _, ok := svc.cache.get(cacheKey(name)); !ok {
						t.Errorf("key %q should have survived", name)
					}
				}
			}
			st := svc.Stats().Cache
			if st.Entries != capacity {
				t.Fatalf("entries = %d, want %d", st.Entries, capacity)
			}
			// 11 block inserts (b and e re-enter after being evicted) into 4
			// blocks of room.
			if st.Evictions != int64(7*block) {
				t.Fatalf("evictions = %d, want %d", st.Evictions, 7*block)
			}
		})
	}
}

// TestCacheKeepsItsWorkingSet: a result cache of capacity n keeps any n
// results. Cycling 200 request keys, and then 256, through a 256-entry
// cache misses each key once, on the first pass, and evicts nothing.
func TestCacheKeepsItsWorkingSet(t *testing.T) {
	const capacity = 256
	for _, n := range []int{200, 256} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			svc := New(Options{CacheCapacity: capacity})
			t.Cleanup(svc.Close)
			for pass := 0; pass < 3; pass++ {
				before := svc.Stats().Cache
				for i := 0; i < n; i++ {
					touch(svc, fmt.Sprintf("k%d", i))
				}
				after := svc.Stats().Cache
				want := int64(0)
				if pass == 0 {
					want = int64(n)
				}
				if misses := after.Misses - before.Misses; misses != want {
					t.Fatalf("pass %d: %d misses of %d lookups, want %d", pass, misses, n, want)
				}
			}
			if st := svc.Stats().Cache; st.Entries != n || st.Evictions != 0 {
				t.Fatalf("%d results leave %d entries after %d evictions, want %d and 0", n, st.Entries, st.Evictions, n)
			}
		})
	}
}

// TestCacheConcurrentGetPut hammers the result cache from many goroutines
// (run under -race via `make race`). Beyond the absence of data races, it
// checks the invariants the service relies on: a lookup never returns a
// value the key was not put under, and the entry count never exceeds
// capacity.
func TestCacheConcurrentGetPut(t *testing.T) {
	const (
		capacity   = 64
		goroutines = 8
		opsEach    = 2000
		keySpace   = 200 // > capacity, so eviction churns continuously
	)
	svc := New(Options{CacheCapacity: capacity})
	t.Cleanup(svc.Close)
	results := make([]*JobResult, keySpace)
	for i := range results {
		results[i] = &JobResult{Distance: float64(i)}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				k := rng.Intn(keySpace)
				name := fmt.Sprintf("key-%d", k)
				if rng.Intn(2) == 0 {
					svc.cache.put(cacheKey(name), results[k])
					continue
				}
				req := cacheRequest(name)
				if _, v, ok := svc.lookup(&req); ok && v != results[k] {
					t.Errorf("lookup(%s) returned a foreign value", name)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := svc.Stats().Cache
	if st.Entries > capacity {
		t.Fatalf("entries = %d exceeds capacity %d", st.Entries, capacity)
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}
