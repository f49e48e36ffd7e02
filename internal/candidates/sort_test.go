package candidates

import (
	"math/rand"
	"testing"

	"gecco/internal/bitset"
	"gecco/internal/distance"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/procgen"
)

// The LB-gated beam sort must produce the exact same first `cut` paths, in
// the same order, as the full stable sort — the rest of the slice is never
// read by DFGBasedCtx. Ties (duplicate groups included) must keep insertion
// order. The lower bound must actually prune: skipping exact Eq. 1
// evaluations is the whole point.
func TestSortPathsByDistLBGatedMatchesFullSort(t *testing.T) {
	x := eventlog.NewIndex(procgen.RunningExample(150, 3))
	r := rand.New(rand.NewSource(5))
	var base []path
	for i := 0; i < 40; i++ {
		g := bitset.New(x.NumClasses())
		for cl := 0; cl < x.NumClasses(); cl++ {
			if r.Intn(3) == 0 {
				g.Add(cl)
			}
		}
		if g.IsEmpty() {
			g.Add(r.Intn(x.NumClasses()))
		}
		base = append(base, path{group: g})
	}
	// Force duplicate groups so the tie rule is actually exercised.
	base = append(base, path{group: base[0].group.Clone()}, path{group: base[7].group.Clone()})

	totalPruned := 0
	for _, workers := range []int{1, 4} {
		for _, cut := range []int{1, 3, 8, 17} {
			oracle := append([]path(nil), base...)
			dcO := distance.NewCalc(x, instances.SplitOnRepeat)
			sortPathsByDist(oracle, dcO, workers, 0) // cut <= 0: full sort

			gated := append([]path(nil), base...)
			dcG := distance.NewCalc(x, instances.SplitOnRepeat)
			sortPathsByDist(gated, dcG, workers, cut)

			for i := 0; i < cut; i++ {
				if !gated[i].group.Equal(oracle[i].group) {
					t.Fatalf("workers=%d cut=%d: beam position %d differs: gated %v, full sort %v",
						workers, cut, i, gated[i].group, oracle[i].group)
				}
			}
			totalPruned += dcG.LBPruned()
			if dcG.Evals() > dcO.Evals() {
				t.Fatalf("workers=%d cut=%d: gated sort evaluated %d groups, full sort only %d",
					workers, cut, dcG.Evals(), dcO.Evals())
			}
		}
	}
	if totalPruned == 0 {
		t.Fatal("LBPruned stayed zero across every cut — the bound never gated an evaluation")
	}
}
