// Package bitset provides a compact fixed-universe bit set used to represent
// groups of event classes and trace memberships throughout GECCO. Sets are
// value types backed by a []uint64 slice; all operations that return a set
// allocate a fresh one, so sets can be shared freely as map keys via Key().
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a bit set over the universe [0, n). The zero value is an empty set
// over an empty universe; use New to create a set with capacity.
type Set struct {
	words []uint64
}

// New returns an empty set able to hold elements in [0, n).
func New(n int) Set {
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// GrowAdd inserts i, growing the set's capacity as needed — for builders
// that accumulate membership before the universe size is known. Unlike Add
// it may reallocate the backing words, so it needs a pointer receiver and
// must not be used on a set that other Set values alias.
func (s *Set) GrowAdd(i int) {
	w := i / wordBits
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(i) % wordBits)
}

// Bytes returns the heap footprint of the set's backing words, for memory
// accounting.
func (s Set) Bytes() int { return len(s.words) * 8 }

// Words exposes the set's backing word slice — word i holds elements
// [64i, 64i+64), least-significant bit first. The slice is the live backing
// store, not a copy: callers must treat it as read-only. It exists for
// serialisation (eventlog.WriteIndex stores bitsets as their in-memory word
// layout, little-endian).
func (s Set) Words() []uint64 { return s.words }

// FromWords builds a set over the given backing words (same layout as
// Words). The slice is adopted, not copied; the caller must not modify it
// afterwards. It is the deserialisation counterpart of Words.
func FromWords(words []uint64) Set { return Set{words: words} }

// Max returns the largest element, or -1 if the set is empty.
func (s Set) Max() int {
	for i := len(s.words) - 1; i >= 0; i-- {
		if w := s.words[i]; w != 0 {
			return i*wordBits + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// FromSlice returns a set over [0, n) containing the given elements.
func FromSlice(n int, elems []int) Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Clone returns a deep copy of s.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// Add inserts i into the set. The set must have capacity for i.
func (s Set) Add(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set if present.
func (s Set) Remove(i int) {
	if i/wordBits < len(s.words) {
		s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Contains reports whether i is in the set.
func (s Set) Contains(i int) bool {
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<(uint(i)%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	a, b := s.words, t.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	for i := len(b); i < len(a); i++ {
		if a[i] != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one element.
func (s Set) Intersects(t Set) bool {
	n := min(len(s.words), len(t.words))
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Union returns a new set s ∪ t.
func (s Set) Union(t Set) Set {
	a, b := s.words, t.words
	if len(a) < len(b) {
		a, b = b, a
	}
	w := make([]uint64, len(a))
	copy(w, a)
	for i := range b {
		w[i] |= b[i]
	}
	return Set{words: w}
}

// Intersect returns a new set s ∩ t.
func (s Set) Intersect(t Set) Set {
	n := min(len(s.words), len(t.words))
	w := make([]uint64, n)
	for i := 0; i < n; i++ {
		w[i] = s.words[i] & t.words[i]
	}
	return Set{words: w}
}

// With returns a new set equal to s with i added.
func (s Set) With(i int) Set {
	w := i / wordBits
	out := make([]uint64, max(len(s.words), w+1))
	copy(out, s.words)
	out[w] |= 1 << (uint(i) % wordBits)
	return Set{words: out}
}

// Elems returns the elements of the set in ascending order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for each element in ascending order; it stops early if fn
// returns false.
func (s Set) ForEach(fn func(i int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// AndCount returns |s ∩ t| without materialising the intersection — the
// word-parallel popcount kernel behind aggregate-cache merges and the
// distance lower bound.
func (s Set) AndCount(t Set) int {
	n := min(len(s.words), len(t.words))
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// AndInto replaces s with s ∩ t in place and reports whether the result is
// non-empty. s must own its backing words (e.g. a Clone or a reused
// scratch); words of s beyond t's length are cleared.
func (s Set) AndInto(t Set) bool {
	n := min(len(s.words), len(t.words))
	any := uint64(0)
	for i := 0; i < n; i++ {
		s.words[i] &= t.words[i]
		any |= s.words[i]
	}
	for i := n; i < len(s.words); i++ {
		s.words[i] = 0
	}
	return any != 0
}

// OrInto replaces s with s ∪ t in place. s must have capacity for every
// element of t (its word slice is not grown) and must own its backing words.
func (s Set) OrInto(t Set) {
	n := min(len(s.words), len(t.words))
	for i := 0; i < n; i++ {
		s.words[i] |= t.words[i]
	}
}

// Clear removes all elements in place.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ForEachAnd calls fn for every element of s ∩ t in ascending order without
// materialising the intersection; it stops early if fn returns false.
func (s Set) ForEachAnd(t Set, fn func(i int) bool) {
	n := min(len(s.words), len(t.words))
	for i := 0; i < n; i++ {
		w := s.words[i] & t.words[i]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Min returns the smallest element, or -1 if the set is empty.
func (s Set) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Key returns a string usable as a map key identifying the set's contents.
// Trailing zero words are ignored, so sets over different capacities with the
// same elements share a key.
func (s Set) Key() string {
	end := len(s.words)
	for end > 0 && s.words[end-1] == 0 {
		end--
	}
	var b strings.Builder
	b.Grow(end * 8)
	for i := 0; i < end; i++ {
		w := s.words[i]
		for j := 0; j < 8; j++ {
			b.WriteByte(byte(w >> (8 * j)))
		}
	}
	return b.String()
}

// String renders the set as "{1, 4, 7}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
