// Package shard implements the consistent-hash ring that assigns GECCO's
// per-log artifacts to gecco-serve replicas. Every serving-layer artifact —
// frozen index, live session, stream window, pipeline stage state — is keyed
// by a log digest (or a stream name), so placing the *digest* places the
// whole artifact family: a request routed by ring ownership always finds the
// shard that holds (or will build) its session, preserving the single-flight
// and memo-sharing wins of the session engine while capacity scales with the
// member count.
//
// Placement is deterministic: member IDs and the virtual-node count fully
// determine the ring, so two routers configured with the same member list
// agree on every key without coordination, across processes and restarts.
// The exact placement is pinned by test — changing the hash or the point
// layout is a breaking change for rolling upgrades and must be deliberate.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the per-member virtual-node count used when a Ring
// is built with vnodes <= 0. 128 points per member keeps the expected
// per-member load within a few percent of uniform for small clusters.
const DefaultVirtualNodes = 128

// point is one virtual node: a position on the 64-bit ring owned by a
// member.
type point struct {
	hash   uint64
	member int32 // index into members
}

// Ring is an immutable consistent-hash ring over member IDs. Build with
// New; derive smaller rings with Without. All methods are safe for
// concurrent use (the ring is never mutated after construction).
type Ring struct {
	members []string
	points  []point // sorted by hash
}

// Hash maps a key to its ring position. SHA-256 truncated to 64 bits:
// deterministic across platforms and Go versions (unlike maphash), uniform
// enough that virtual nodes spread evenly, and already the digest family the
// serving layer uses for log identity.
func Hash(key string) uint64 {
	return HashSum(sha256.Sum256([]byte(key)))
}

// HashSum is Hash for a key whose SHA-256 the caller already holds: the
// sum's first 8 bytes, big-endian.
func HashSum(sum [sha256.Size]byte) uint64 {
	return binary.BigEndian.Uint64(sum[:8])
}

// New builds a ring over the given member IDs with vnodes virtual nodes per
// member (<= 0 means DefaultVirtualNodes). Member IDs must be non-empty and
// unique; duplicates are collapsed. Order of the input does not affect
// placement — only the ID strings do — so routers may list peers in any
// order and still agree.
func New(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	// Canonical member order: placement must not depend on how the operator
	// listed the peers, so points reference members through a sorted table.
	sort.Strings(uniq)
	r := &Ring{members: uniq, points: make([]point, 0, len(uniq)*vnodes)}
	for i, m := range uniq {
		for v := 0; v < vnodes; v++ {
			// The separator byte cannot occur in a printable member ID, so
			// distinct (member, vnode) pairs cannot collide on input bytes.
			r.points = append(r.points, point{hash: Hash(fmt.Sprintf("%s\x00%d", m, v)), member: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].member < r.points[b].member
	})
	return r
}

// Members returns the ring's member IDs in canonical (sorted) order. The
// slice is shared; callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning the key: the first virtual node at or
// clockwise after the key's position. An empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.members) == 0 {
		return ""
	}
	return r.members[r.points[r.search(Hash(key))].member]
}

// search returns the index of the first point at or after position h,
// wrapping to 0 past the last point.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Sequence returns all members in the key's preference order: the owner
// first, then each distinct member encountered walking the ring clockwise.
// This is the heal order — when the owner is unreachable, the next member in
// the sequence inherits the key, which is exactly the member that would own
// it if the ring were rebuilt without the failed one. The returned slice is
// freshly allocated.
func (r *Ring) Sequence(key string) []string {
	return r.SequenceHash(Hash(key))
}

// SequenceHash is Sequence for a key whose position, Hash(key), the caller
// already holds.
func (r *Ring) SequenceHash(h uint64) []string {
	if len(r.members) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	seen := make(map[int32]bool, len(r.members))
	for i, start := 0, r.search(h); len(out) < len(r.members) && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// Without returns a ring over the members minus the given one — the healed
// ring after a departure. Keys owned by other members keep their owner
// (consistent hashing's point); the departed member's range is absorbed by
// each key's successor.
func (r *Ring) Without(member string) *Ring {
	kept := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			kept = append(kept, m)
		}
	}
	// Reconstruct rather than filter points: vnodes per member is implied by
	// the point count and stays identical, so surviving placements match.
	vnodes := 0
	if len(r.members) > 0 {
		vnodes = len(r.points) / len(r.members)
	}
	return New(kept, vnodes)
}
