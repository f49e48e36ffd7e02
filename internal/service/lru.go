package service

import (
	"container/list"
	"sync"
)

// lru is the recency bookkeeping of each of the service's bounded caches:
// a map plus a list, front = most recently used. It takes no lock; each
// owner calls it under the mutex that already guards what the owner keeps
// beside its entries.
type lru[K comparable, V any] struct {
	cap     int
	entries map[K]*list.Element
	order   *list.List
	// onEvict, when set, sees each value that put evicts past capacity.
	onEvict func(V)
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns an lru of up to capacity entries; at capacity <= 0 it
// stores nothing.
func newLRU[K comparable, V any](capacity int, onEvict func(V)) *lru[K, V] {
	return &lru[K, V]{cap: capacity, entries: make(map[K]*list.Element), order: list.New(), onEvict: onEvict}
}

// get returns the key's value and marks it most recently used.
func (c *lru[K, V]) get(k K) (v V, ok bool) {
	el, ok := c.entries[k]
	if ok {
		c.order.MoveToFront(el)
		v = el.Value.(*lruEntry[K, V]).val
	}
	return v, ok
}

// peek returns the key's value and leaves its recency alone.
func (c *lru[K, V]) peek(k K) (v V, ok bool) {
	el, ok := c.entries[k]
	if ok {
		v = el.Value.(*lruEntry[K, V]).val
	}
	return v, ok
}

// put stores the key's value as the most recently used, then evicts the
// least recently used entries past capacity.
func (c *lru[K, V]) put(k K, v V) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	for c.order.Len() > c.cap {
		e := c.order.Remove(c.order.Back()).(*lruEntry[K, V])
		delete(c.entries, e.key)
		if c.onEvict != nil {
			c.onEvict(e.val)
		}
	}
}

// remove deletes the key and returns the value it held.
func (c *lru[K, V]) remove(k K) (v V, ok bool) {
	el, ok := c.entries[k]
	if ok {
		delete(c.entries, k)
		v = c.order.Remove(el).(*lruEntry[K, V]).val
	}
	return v, ok
}

func (c *lru[K, V]) len() int { return len(c.entries) }

// each calls fn on every value, most recently used first.
func (c *lru[K, V]) each(fn func(V)) {
	for el := c.order.Front(); el != nil; el = el.Next() {
		fn(el.Value.(*lruEntry[K, V]).val)
	}
}

// clear drops every entry without calling onEvict.
func (c *lru[K, V]) clear() {
	clear(c.entries)
	c.order.Init()
}

// memo is an lru behind a mutex of its own, for an owner that keeps
// nothing beside its entries: the wire memo and the result cache.
type memo[K comparable, V any] struct {
	mu  sync.Mutex
	lru *lru[K, V]
}

// newMemo returns a memo of up to capacity entries; onEvict, when set,
// sees each value put evicts past capacity, under the memo's lock.
func newMemo[K comparable, V any](capacity int, onEvict func(V)) *memo[K, V] {
	return &memo[K, V]{lru: newLRU[K](capacity, onEvict)}
}

func (m *memo[K, V]) get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.get(k)
}

func (m *memo[K, V]) put(k K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lru.put(k, v)
}

func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.len()
}
