package service

import (
	"errors"
	"sort"
	"sync"

	"gecco/internal/core"
	"gecco/internal/eventlog"
)

// SessionStats aggregates the session cache's counters for /stats. A hit
// means a request on a known log skipped parsing-independent analysis
// (indexing, DFG construction) and started with a warm distance memo.
type SessionStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	// IndexBytes is the summed estimated heap footprint of the live
	// sessions' columnar indexes (class arenas, attribute columns,
	// dictionaries, bitsets). Uploads are parsed straight into their index,
	// warm-opened indexes are decoded onto the heap, and an infeasible
	// solve answers with the session's own index, so a session pins no
	// other copy of its log.
	IndexBytes int64 `json:"indexBytes"`
}

// sessionEntry is one cached live session. The done channel coalesces
// concurrent first requests for the same log onto a single index build: the
// creator closes it after the build, latecomers block on it in getOrCreate.
// Only the creator writes session/err — under the cache mutex (drop reads
// session under the same mutex) and before closing done, so latecomers that
// return from the receive see a consistent pair.
type sessionEntry struct {
	digest  string
	done    chan struct{}
	session *core.Session
	err     error
}

// sessionCache is an LRU of live core.Sessions keyed by log digest. It sits
// *under* the result cache: a result hit never reaches it, a result miss on
// a known log reuses the session's frozen artifacts and warm distance memo.
// Like the result cache it is one exact LRU; its mutex also guards the
// build coalescing and the counters kept beside the entries.
type sessionCache struct {
	mu        sync.Mutex
	lru       *lru[string, *sessionEntry]
	hits      int64
	misses    int64
	evictions int64
	// store, when non-nil, is the warm tier: evicted sessions spill their
	// index to disk, and misses try OpenIndex before re-parsing.
	store *diskStore
}

func newSessionCache(capacity int, store *diskStore) *sessionCache {
	c := &sessionCache{store: store}
	c.lru = newLRU[string](capacity, func(e *sessionEntry) {
		c.evictions++
		c.spillLocked(e)
	})
	return c
}

// getOrCreate returns the live session for the key — an upload's log
// digest, or a pipeline working view's chain key — building and caching it
// on first use. Concurrent callers for the same new key share one build. A
// build error is not cached: the entry is removed so the next request
// retries. The index arrives as a loader, not a value: when the session is
// live or its index warm-opens from the spill tier, the upload is never
// parsed at all (see the wire-digest memo).
func (c *sessionCache) getOrCreate(digest string, load func() (*eventlog.Index, error)) (*core.Session, error) {
	c.mu.Lock()
	if e, ok := c.lru.get(digest); ok {
		c.hits++
		c.mu.Unlock()
		<-e.done // wait for an in-flight first build
		return e.session, e.err
	}
	c.misses++
	e := &sessionEntry{digest: digest, done: make(chan struct{})}
	c.lru.put(digest, e)
	c.mu.Unlock()

	return c.build(e, digest, load)
}

// spillLocked hands an evicted entry's index to the warm tier, so the next
// request for the log costs an OpenIndex instead of a re-parse. Called with
// c.mu held (session is published under it); the write itself runs on a
// store goroutine. Entries still building (session nil) have nothing to
// spill — their build survives eviction and publishes to latecomers, it is
// just not re-admitted.
func (c *sessionCache) spillLocked(e *sessionEntry) {
	if c.store != nil && e.session != nil {
		c.store.spillIndexAsync(e.digest, e.session.Index())
	}
}

// build constructs the session for a fresh entry and publishes the
// outcome. The deferred publish runs even if the build panics (converting
// the panic into an error for latecomers before it propagates), so a caller
// that recovers — the job runner, or net/http's handler recovery — cannot
// strand other goroutines blocked on the entry's done channel. A failed
// build is removed from the cache so the next request retries; the identity
// check guards against the entry having been evicted and replaced meanwhile.
//
// The warm tier is tried first: a previously spilled index is opened from
// disk (read and validated, no parse, no build) and only the key's
// first-ever build calls load. A corrupt or unreadable file falls back to load — openIndex already
// deleted it, so the fallback's eventual eviction re-spills a good copy.
func (c *sessionCache) build(e *sessionEntry, digest string, load func() (*eventlog.Index, error)) (sess *core.Session, err error) {
	defer func() {
		if sess == nil && err == nil {
			err = errors.New("service: session build panicked")
		}
		c.mu.Lock()
		e.session, e.err = sess, err
		if err != nil {
			if cur, ok := c.lru.peek(digest); ok && cur == e {
				c.lru.remove(digest)
			}
		}
		c.mu.Unlock()
		close(e.done)
	}()
	if c.store != nil {
		if x, ok := c.store.openIndex(digest); ok {
			if s, serr := core.NewSessionFromIndex(x); serr == nil {
				return s, nil
			}
		}
	}
	x, err := load()
	if err != nil {
		return nil, err
	}
	return core.NewSessionFromIndex(x)
}

// peek returns the digest's live session when one exists, bumping recency,
// without admitting an entry on miss — the streaming workload's regroup
// windows are almost always fresh digests, and inserting each would churn
// the /abstract workload's few, expensive entries out of the LRU. Neither a
// miss nor a hit disturbs the hit/miss counters' meaning: a peek hit is a
// genuine session reuse and is counted; a miss is not a failed admission
// and is not.
func (c *sessionCache) peek(digest string) (*core.Session, bool) {
	c.mu.Lock()
	e, ok := c.lru.get(digest)
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	<-e.done // wait for an in-flight first build
	if e.err != nil || e.session == nil {
		return nil, false
	}
	return e.session, true
}

// drop removes the digest's entry if it still holds the given session (a
// fresh session may already have replaced it), counting the removal as an
// eviction. Used to retire sessions whose memos outgrew the configured
// bound.
func (c *sessionCache) drop(digest string, sess *core.Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lru.peek(digest); ok && e.session == sess {
		c.lru.remove(digest)
		c.evictions++
		// A retired session's index is unchanged (only its memo grew), so
		// it still warms the next rebuild.
		c.spillLocked(e)
	}
}

// spillAll writes every live session's index to the warm tier. Called on
// shutdown so a restarted process warm-opens its whole working set; spills
// of already-persisted digests are no-ops.
func (c *sessionCache) spillAll() {
	if c.store == nil {
		return
	}
	c.mu.Lock()
	sessions := make([]*sessionEntry, 0, c.lru.len())
	c.lru.each(func(e *sessionEntry) {
		if e.session != nil {
			sessions = append(sessions, e)
		}
	})
	c.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].digest < sessions[j].digest })
	for _, e := range sessions {
		c.store.spillIndex(e.digest, e.session.Index())
	}
}

// Stats snapshots the session cache counters, including the estimated bytes
// pinned by live indexes. Entries still building (session published under
// this same mutex) contribute nothing until their build completes.
func (c *sessionCache) Stats() SessionStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := SessionStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.lru.len(),
		Capacity:  c.lru.cap,
	}
	c.lru.each(func(e *sessionEntry) {
		if e.session != nil {
			st.IndexBytes += e.session.EstimatedBytes()
		}
	})
	return st
}
