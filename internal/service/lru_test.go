package service

import (
	"slices"
	"testing"
)

// lruOp is one call on an lru[string, int]. For get, peek and remove, val
// is the value the call must return, 0 for a key it must not find.
type lruOp struct {
	op  string // put, get, peek, remove or clear
	key string
	val int
}

// TestLRU: the recency bookkeeping every bounded cache of the service
// shares. each must walk the values most recent first, and onEvict must see
// exactly the values put evicted past capacity, in eviction order.
func TestLRU(t *testing.T) {
	put := func(k string, v int) lruOp { return lruOp{"put", k, v} }
	get := func(k string, v int) lruOp { return lruOp{"get", k, v} }
	peek := func(k string, v int) lruOp { return lruOp{"peek", k, v} }
	remove := func(k string, v int) lruOp { return lruOp{"remove", k, v} }
	clearAll := lruOp{op: "clear"}
	for _, tc := range []struct {
		name     string
		capacity int
		ops      []lruOp
		each     []int // the values, most recent first
		evicted  []int
	}{
		{"get bumps recency", 2,
			[]lruOp{put("a", 1), put("b", 2), get("a", 1), put("c", 3)},
			[]int{3, 1}, []int{2}},
		{"peek leaves recency", 2,
			[]lruOp{put("a", 1), put("b", 2), peek("a", 1), put("c", 3), peek("a", 0)},
			[]int{3, 2}, []int{1}},
		{"put past capacity evicts least recent first", 3,
			[]lruOp{put("a", 1), put("b", 2), put("c", 3), put("d", 4), put("e", 5), get("a", 0), get("b", 0)},
			[]int{5, 4, 3}, []int{1, 2}},
		{"put of a held key refreshes it and evicts nothing", 2,
			[]lruOp{put("a", 1), put("b", 2), put("a", 10), put("c", 3)},
			[]int{3, 10}, []int{2}},
		{"remove does not call onEvict", 2,
			[]lruOp{put("a", 1), put("b", 2), remove("a", 1), remove("a", 0), put("c", 3)},
			[]int{3, 2}, nil},
		{"clear does not call onEvict", 2,
			[]lruOp{put("a", 1), put("b", 2), clearAll, get("a", 0), put("c", 3)},
			[]int{3}, nil},
		{"capacity 0 stores nothing", 0,
			[]lruOp{put("a", 1), get("a", 0), peek("a", 0)},
			nil, nil},
		{"negative capacity stores nothing", -1,
			[]lruOp{put("a", 1), put("b", 2), get("a", 0)},
			nil, nil},
		{"each walks from the most recent entry", 4,
			[]lruOp{put("a", 1), put("b", 2), put("c", 3), get("a", 1), put("d", 4), peek("b", 2)},
			[]int{4, 1, 3, 2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var evicted []int
			c := newLRU[string](tc.capacity, func(v int) { evicted = append(evicted, v) })
			for i, op := range tc.ops {
				var got int
				switch op.op {
				case "put":
					c.put(op.key, op.val)
					continue
				case "get":
					got, _ = c.get(op.key)
				case "peek":
					got, _ = c.peek(op.key)
				case "remove":
					got, _ = c.remove(op.key)
				case "clear":
					c.clear()
					continue
				}
				if got != op.val {
					t.Fatalf("op %d: %s(%q) = %d, want %d", i, op.op, op.key, got, op.val)
				}
			}
			var each []int
			c.each(func(v int) { each = append(each, v) })
			if !slices.Equal(each, tc.each) {
				t.Errorf("each walked %v, want %v", each, tc.each)
			}
			if c.len() != len(tc.each) {
				t.Errorf("len = %d, want %d", c.len(), len(tc.each))
			}
			if !slices.Equal(evicted, tc.evicted) {
				t.Errorf("onEvict saw %v, want %v", evicted, tc.evicted)
			}
		})
	}
}
