package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.IsEmpty() {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	if s.Len() != 7 {
		t.Fatalf("Len = %d, want 7", s.Len())
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) after Remove")
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	if s.Min() != 0 {
		t.Fatalf("Min = %d, want 0", s.Min())
	}
}

func TestElemsRoundTrip(t *testing.T) {
	elems := []int{3, 17, 64, 99}
	s := FromSlice(100, elems)
	got := s.Elems()
	if len(got) != len(elems) {
		t.Fatalf("Elems = %v, want %v", got, elems)
	}
	for i := range elems {
		if got[i] != elems[i] {
			t.Fatalf("Elems = %v, want %v", got, elems)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromSlice(70, []int{1, 2, 3, 65})
	b := FromSlice(70, []int{3, 4, 65})
	if got := a.Union(b).Elems(); len(got) != 5 {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).Elems(); len(got) != 2 || got[0] != 3 || got[1] != 65 {
		t.Errorf("Intersect = %v, want [3 65]", got)
	}
	if got := diff(a, b).Elems(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("a \\ b = %v, want [1 2]", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false")
	}
	c := FromSlice(70, []int{10})
	if a.Intersects(c) {
		t.Error("Intersects disjoint = true")
	}
}

func TestSubset(t *testing.T) {
	a := FromSlice(70, []int{1, 2})
	b := FromSlice(70, []int{1, 2, 3})
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Error("subset relation wrong")
	}
	if !a.SubsetOf(b) || a.Equal(b) {
		t.Error("proper subset wrong")
	}
	if !a.Equal(a) {
		t.Error("a ⊂ a should be false, as a equals itself")
	}
	if !a.SubsetOf(a) {
		t.Error("a ⊆ a should be true")
	}
}

func TestEqualAcrossCapacities(t *testing.T) {
	a := FromSlice(64, []int{1, 63})
	b := FromSlice(256, []int{1, 63})
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("sets with same elements but different capacity not Equal")
	}
	if a.Key() != b.Key() {
		t.Error("Key differs across capacities")
	}
	b.Add(200)
	if a.Equal(b) {
		t.Error("Equal after differing element")
	}
}

func TestWithDoesNotMutate(t *testing.T) {
	a := FromSlice(10, []int{1})
	b := a.With(5)
	if a.Contains(5) {
		t.Error("With mutated receiver")
	}
	if !b.Contains(5) || !b.Contains(1) {
		t.Error("With missing elements")
	}
}

func TestKeyUniqueness(t *testing.T) {
	seen := make(map[string][]int)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		var elems []int
		for i := 0; i < 128; i++ {
			if rng.Intn(10) == 0 {
				elems = append(elems, i)
			}
		}
		s := FromSlice(128, elems)
		k := s.Key()
		if prev, ok := seen[k]; ok {
			if !FromSlice(128, prev).Equal(s) {
				t.Fatalf("key collision between %v and %v", prev, elems)
			}
		}
		seen[k] = elems
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice(20, []int{2, 5, 9})
	var visited []int
	s.ForEach(func(i int) bool {
		visited = append(visited, i)
		return len(visited) < 2
	})
	if len(visited) != 2 || visited[0] != 2 || visited[1] != 5 {
		t.Fatalf("visited %v", visited)
	}
}

// Property: union length equals len(a) + len(b) - len(a∩b).
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		return a.Union(b).Len() == a.Len()+b.Len()-a.Intersect(b).Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// diff returns a new set a \ b: a clone of a with b's elements removed.
func diff(a, b Set) Set {
	d := a.Clone()
	b.ForEach(func(i int) bool { d.Remove(i); return true })
	return d
}

// Property: diff and intersect partition a.
func TestQuickDiffPartition(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		d, i := diff(a, b), a.Intersect(b)
		return d.Union(i).Equal(a) && !d.Intersects(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Elems is sorted and Key is stable under element order.
func TestQuickElemsSorted(t *testing.T) {
	f := func(xs []uint8) bool {
		s := New(256)
		for _, x := range xs {
			s.Add(int(x))
		}
		e := s.Elems()
		for i := 1; i < len(e); i++ {
			if e[i-1] >= e[i] {
				return false
			}
		}
		return FromSlice(256, e).Key() == s.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
