package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The word-parallel kernels (AndCount, Intersects, AndInto, OrInto,
// ForEachAnd) back the solver's screening and lower-bound machinery; each
// is checked here against the naive element-by-element definition on
// random sets, including mismatched capacities (t shorter or longer than
// s).

// fromElems builds a set over universe n from arbitrary element seeds.
func fromElems(n int, elems []uint16) Set {
	s := New(n)
	for _, e := range elems {
		s.Add(int(e) % n)
	}
	return s
}

// naiveIntersection returns the sorted intersection of two sets via Elems.
func naiveIntersection(a, b Set) []int {
	inB := make(map[int]bool)
	for _, e := range b.Elems() {
		inB[e] = true
	}
	var out []int
	for _, e := range a.Elems() {
		if inB[e] {
			out = append(out, e)
		}
	}
	sort.Ints(out)
	return out
}

func TestKernelsQuick(t *testing.T) {
	check := func(ea, eb, ec []uint16, nSeedA, nSeedB uint8) bool {
		// Different universes exercise the capacity-mismatch paths.
		na := 1 + int(nSeedA)%200
		nb := 1 + int(nSeedB)%200
		a := fromElems(na, ea)
		b := fromElems(nb, eb)
		c := fromElems(nb, ec)
		inter := naiveIntersection(a, b)

		// AndCount == |a ∩ b|.
		if a.AndCount(b) != len(inter) || b.AndCount(a) != len(inter) {
			t.Errorf("AndCount mismatch: got %d/%d, want %d", a.AndCount(b), b.AndCount(a), len(inter))
			return false
		}

		// Intersects == a ∩ b is non-empty.
		if a.Intersects(b) != (len(inter) > 0) || b.Intersects(a) != (len(inter) > 0) {
			t.Errorf("Intersects mismatch: got %v/%v, want %v", a.Intersects(b), b.Intersects(a), len(inter) > 0)
			return false
		}

		// ForEachAnd visits exactly a ∩ b ascending, with early exit.
		var visited []int
		a.ForEachAnd(b, func(i int) bool { visited = append(visited, i); return true })
		if !equalInts(visited, inter) {
			t.Errorf("ForEachAnd visited %v, want %v", visited, inter)
			return false
		}
		if len(inter) > 1 {
			stop := len(inter) / 2
			visited = visited[:0]
			a.ForEachAnd(b, func(i int) bool {
				visited = append(visited, i)
				return len(visited) < stop
			})
			if !equalInts(visited, inter[:stop]) {
				t.Errorf("ForEachAnd early-exit visited %v, want %v", visited, inter[:stop])
				return false
			}
		}

		// ForEach reconstructs the set.
		visited = visited[:0]
		a.ForEach(func(i int) bool { visited = append(visited, i); return true })
		if !equalInts(visited, a.Elems()) {
			t.Errorf("ForEach reconstructed %v, want %v", visited, a.Elems())
			return false
		}

		// AndInto == Intersect, in place, reporting non-emptiness; words of
		// the receiver beyond t's length must be cleared.
		ai := a.Clone()
		nonEmpty := ai.AndInto(b)
		if !ai.Equal(a.Intersect(b)) {
			t.Errorf("AndInto: got %v, want %v", ai, a.Intersect(b))
			return false
		}
		if nonEmpty != !ai.IsEmpty() {
			t.Error("AndInto non-empty report mismatch")
			return false
		}

		// OrInto == Union when the receiver has capacity (b, c share one).
		bo := b.Clone()
		bo.OrInto(c)
		if !bo.Equal(b.Union(c)) {
			t.Errorf("OrInto: got %v, want %v", bo, b.Union(c))
			return false
		}

		// Clone == source contents, in words of its own.
		cc := b.Clone()
		if !cc.Equal(b) {
			t.Errorf("Clone: got %v, want %v", cc, b)
			return false
		}

		// Clear empties in place, and leaves the clone's source alone.
		before := b.Len()
		cc.Clear()
		if !cc.IsEmpty() || cc.Len() != 0 {
			t.Error("Clear left elements behind")
			return false
		}
		if b.Len() != before {
			t.Error("Clear of a clone changed its source")
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
