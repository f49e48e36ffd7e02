package distance

import (
	"testing"

	"gecco/internal/bitset"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/par"
	"gecco/internal/procgen"
)

// TestCalcConcurrentUse hammers one Calc from many goroutines (run under
// -race); the sharded memo must serve every caller the same value and count
// each unique group exactly once.
func TestCalcConcurrentUse(t *testing.T) {
	x := eventlog.NewIndex(procgen.RunningExample(80, 5))
	c := NewCalc(x, instances.SplitOnRepeat)
	ref := NewCalc(x, instances.SplitOnRepeat)
	n := x.NumClasses()
	groups := make([]bitset.Set, 0, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			g := bitset.New(n)
			g.Add(a)
			g.Add(b)
			groups = append(groups, g)
		}
	}
	// Each distinct group appears n times in the work list (a,b and b,a
	// collide plus diagonal repeats); evaluate them all concurrently.
	par.For(8, len(groups), func(i int) {
		got := c.Group(groups[i])
		if rv := ref.Group(groups[i]); got != rv {
			t.Errorf("group %v: concurrent %v != reference %v", groups[i], got, rv)
		}
	})
	unique := make(map[string]struct{})
	for _, g := range groups {
		unique[g.Key()] = struct{}{}
	}
	if c.Evals() != len(unique) {
		t.Fatalf("Evals = %d, want %d (exactly once per unique group)", c.Evals(), len(unique))
	}
}
