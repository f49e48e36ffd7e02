package shard

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
)

var pinMembers = []string{"shard-0", "shard-1", "shard-2", "shard-3"}

// TestDeterministicPlacementPinned pins the exact owner of a fixed key set
// on a fixed four-member ring. These values are a wire-compatibility
// contract: two routers with the same member list must agree on every key,
// including routers running different builds during a rolling upgrade. If
// this test fails, the hash or point layout changed — every deployed
// cluster would re-shuffle its whole keyspace — so the change must be
// deliberate and called out, not incidental.
func TestDeterministicPlacementPinned(t *testing.T) {
	r := New(pinMembers, 0)
	want := map[string]string{
		"alpha":           "shard-2",
		"bravo":           "shard-2",
		"charlie":         "shard-2",
		"delta":           "shard-0",
		"echo":            "shard-0",
		"foxtrot":         "shard-2",
		"golf":            "shard-0",
		"hotel":           "shard-3",
		"stream:orders":   "shard-1",
		"stream:payments": "shard-0",
	}
	for key, owner := range want {
		if got := r.Owner(key); got != owner {
			t.Errorf("Owner(%q) = %q, want pinned %q", key, got, owner)
		}
	}
	wantSeq := map[string][]string{
		"alpha":         {"shard-2", "shard-1", "shard-3", "shard-0"},
		"stream:orders": {"shard-1", "shard-2", "shard-0", "shard-3"},
	}
	for key, seq := range wantSeq {
		if got := r.Sequence(key); !reflect.DeepEqual(got, seq) {
			t.Errorf("Sequence(%q) = %v, want pinned %v", key, got, seq)
		}
	}
}

// TestSequenceHashMatchesSequence: a caller that already holds a key's
// SHA-256 gets the key's placement from it without rehashing the key.
func TestSequenceHashMatchesSequence(t *testing.T) {
	r := New(pinMembers, 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("log-%d", i)
		h := HashSum(sha256.Sum256([]byte(key)))
		if h != Hash(key) {
			t.Fatalf("HashSum and Hash disagree on %q", key)
		}
		if got, want := r.SequenceHash(h), r.Sequence(key); !reflect.DeepEqual(got, want) {
			t.Fatalf("SequenceHash = %v, Sequence(%q) = %v", got, key, want)
		}
	}
	if got := New(nil, 0).SequenceHash(Hash("x")); got != nil {
		t.Errorf("empty ring SequenceHash = %v, want nil", got)
	}
}

// TestMemberOrderIrrelevant verifies that listing peers in a different
// order yields identical placement — routers must agree without
// coordinating on list order.
func TestMemberOrderIrrelevant(t *testing.T) {
	a := New([]string{"s0", "s1", "s2"}, 64)
	b := New([]string{"s2", "s0", "s1"}, 64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owner differs by member list order (%q vs %q)", key, a.Owner(key), b.Owner(key))
		}
	}
}

// TestBalance checks virtual nodes spread load within sane bounds: no
// member of a four-way ring should own less than half or more than double
// its fair share over a large uniform key set.
func TestBalance(t *testing.T) {
	r := New(pinMembers, 0)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	fair := n / len(pinMembers)
	for _, m := range pinMembers {
		if counts[m] < fair/2 || counts[m] > fair*2 {
			t.Errorf("member %s owns %d of %d keys (fair share %d): imbalance beyond 2x", m, counts[m], n, fair)
		}
	}
}

// TestRemovalMovesOnlyDepartedRange is consistent hashing's defining
// property: dropping one member reassigns only the keys that member owned —
// every other key keeps its owner, so surviving shards keep their sessions
// and warm tiers intact through a departure.
func TestRemovalMovesOnlyDepartedRange(t *testing.T) {
	full := New(pinMembers, 0)
	const departed = "shard-1"
	healed := full.Without(departed)
	if healed.Len() != len(pinMembers)-1 {
		t.Fatalf("healed ring has %d members, want %d", healed.Len(), len(pinMembers)-1)
	}
	moved := 0
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := full.Owner(key), healed.Owner(key)
		if before != departed {
			if before != after {
				t.Fatalf("key %q moved %q -> %q although its owner did not depart", key, before, after)
			}
			continue
		}
		moved++
		// The departed range lands on each key's ring successor: the first
		// live member of the original preference order.
		seq := full.Sequence(key)
		if len(seq) < 2 || after != seq[1] {
			t.Fatalf("key %q healed to %q, want ring successor %q", key, after, seq[1])
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the departed member; test is vacuous")
	}
}

// TestDegenerateRings covers the edge shapes the router can hand us.
func TestDegenerateRings(t *testing.T) {
	if got := New(nil, 0).Owner("x"); got != "" {
		t.Errorf("empty ring Owner = %q, want \"\"", got)
	}
	if got := New(nil, 0).Sequence("x"); got != nil {
		t.Errorf("empty ring Sequence = %v, want nil", got)
	}
	single := New([]string{"only"}, 4)
	if got := single.Owner("anything"); got != "only" {
		t.Errorf("single-member ring Owner = %q, want \"only\"", got)
	}
	dup := New([]string{"a", "a", "", "b"}, 8)
	if dup.Len() != 2 {
		t.Errorf("duplicate/empty members not collapsed: Len = %d, want 2", dup.Len())
	}
}
