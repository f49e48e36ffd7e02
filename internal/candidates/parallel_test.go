package candidates

import (
	"context"
	"runtime"
	"testing"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/dfg"
	"gecco/internal/distance"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/par"
	"gecco/internal/procgen"
)

// TestBudgetDeadlineTestedOnFirstCheck guards the fix for the sampling bug:
// the old budget consulted the deadline only when used&63 == 0, so the
// first 63 checks — each potentially a slow constraint evaluation — could
// overshoot it arbitrarily. A context deadline that passes after start()
// must now fail the very first tick, and the refused item must not be
// counted as evaluated.
func TestBudgetDeadlineTestedOnFirstCheck(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	bs := &budgetState{}
	bs.start(ctx)
	<-ctx.Done()
	if got := bs.grant(1); got != 1 {
		t.Fatalf("grant(1) = %d, want 1 (no MaxChecks limit)", got)
	}
	if bs.tick() {
		t.Fatal("first tick after an expired deadline succeeded")
	}
	if !bs.exceeded() {
		t.Fatal("budget not marked exceeded")
	}
	if bs.checks() != 0 {
		t.Fatalf("checks = %d, want 0 (refused item must not count)", bs.checks())
	}
}

func TestBudgetNoDeadlineUnlimited(t *testing.T) {
	bs := &budgetState{}
	bs.start(context.Background())
	if got := bs.grant(1000); got != 1000 {
		t.Fatalf("grant(1000) = %d, want 1000", got)
	}
	for i := 0; i < 1000; i++ {
		if !bs.tick() {
			t.Fatal("unlimited budget refused work")
		}
	}
	if bs.checks() != 1000 {
		t.Fatalf("checks = %d, want 1000", bs.checks())
	}
}

// TestBudgetGrantDeterministicCut checks that batch reservation cuts at the
// exact MaxChecks boundary, which is what makes budgeted parallel runs
// reproduce budgeted sequential runs — and that a short grant still lets
// the granted items run (only further grants are refused).
func TestBudgetGrantDeterministicCut(t *testing.T) {
	bs := &budgetState{Budget: Budget{MaxChecks: 10}}
	bs.start(context.Background())
	if got := bs.grant(7); got != 7 {
		t.Fatalf("grant(7) = %d, want 7", got)
	}
	if got := bs.grant(7); got != 3 {
		t.Fatalf("grant(7) = %d, want remaining 3", got)
	}
	if !bs.maxedOut.Load() {
		t.Fatal("short grant must mark MaxChecks exhausted")
	}
	if !bs.tick() {
		t.Fatal("granted items must still be evaluable after MaxChecks exhaustion")
	}
	if got := bs.grant(1); got != 0 {
		t.Fatalf("grant after exhaustion = %d, want 0", got)
	}
}

// TestBudgetConcurrentTicks hammers the budget from many goroutines; run
// under -race this exercises the atomic counters.
func TestBudgetConcurrentTicks(t *testing.T) {
	bs := &budgetState{Budget: Budget{MaxChecks: 500}}
	bs.start(context.Background())
	granted := 0
	for i := 0; i < 10; i++ {
		granted += bs.grant(100)
	}
	if granted != 500 {
		t.Fatalf("granted = %d, want 500", granted)
	}
	par.For(8, 1000, func(int) { bs.tick() })
	if bs.reserved.Load() != 500 {
		t.Fatalf("reserved = %d, want 500 (ticks must not consume checks)", bs.reserved.Load())
	}
	if bs.checks() != 1000 {
		t.Fatalf("checks = %d, want 1000", bs.checks())
	}
}

func exhaustiveFixture(t testing.TB) (*eventlog.Index, *constraints.Set) {
	t.Helper()
	log := procgen.RunningExample(120, 7)
	x := eventlog.NewIndex(log)
	set := constraints.NewSet(
		constraints.MustParse("|g| <= 6"),
		constraints.MustParse("distinct(role) <= 1"),
		constraints.MustParse("sum(duration) >= 0"),
	)
	return x, set
}

// TestExhaustiveParallelDeterminism asserts the tentpole guarantee: any
// worker count yields the exact candidate list (same groups, same order)
// and the same accounting as the sequential run, with and without a
// MaxChecks cut.
func TestExhaustiveParallelDeterminism(t *testing.T) {
	x, set := exhaustiveFixture(t)
	for _, budget := range []Budget{{}, {MaxChecks: 60}} {
		evSeq := constraints.NewEvaluator(x, set, instances.SplitOnRepeat)
		seq := ExhaustiveCtx(context.Background(), x, evSeq, budget, 1)
		for _, w := range []int{2, 4, runtime.NumCPU()} {
			ev := constraints.NewEvaluator(x, set, instances.SplitOnRepeat)
			got := ExhaustiveCtx(context.Background(), x, ev, budget, w)
			if got.Checks != seq.Checks || got.TimedOut != seq.TimedOut {
				t.Fatalf("budget %+v workers %d: checks/timeout = %d/%v, want %d/%v",
					budget, w, got.Checks, got.TimedOut, seq.Checks, seq.TimedOut)
			}
			if len(got.Groups) != len(seq.Groups) {
				t.Fatalf("budget %+v workers %d: %d groups, want %d", budget, w, len(got.Groups), len(seq.Groups))
			}
			for i := range got.Groups {
				if !got.Groups[i].Equal(seq.Groups[i]) {
					t.Fatalf("budget %+v workers %d: group %d = %v, want %v",
						budget, w, i, got.Groups[i], seq.Groups[i])
				}
			}
			if ev.Checks() != evSeq.Checks() {
				t.Fatalf("budget %+v workers %d: evaluator checks %d, want %d",
					budget, w, ev.Checks(), evSeq.Checks())
			}
		}
	}
}

// TestDFGBasedParallelDeterminism does the same for Algorithm 2, covering
// both the unbounded and the beam-pruned search.
func TestDFGBasedParallelDeterminism(t *testing.T) {
	x, set := exhaustiveFixture(t)
	g := dfg.Build(x)
	for _, beam := range []int{-1, 3} {
		evSeq := constraints.NewEvaluator(x, set, instances.SplitOnRepeat)
		dcSeq := distance.NewCalc(x, instances.SplitOnRepeat)
		seq := DFGBasedCtx(context.Background(), x, evSeq, dcSeq, g, beam, Budget{}, 1)
		for _, w := range []int{2, runtime.NumCPU()} {
			ev := constraints.NewEvaluator(x, set, instances.SplitOnRepeat)
			dc := distance.NewCalc(x, instances.SplitOnRepeat)
			got := DFGBasedCtx(context.Background(), x, ev, dc, g, beam, Budget{}, w)
			if got.Checks != seq.Checks {
				t.Fatalf("beam %d workers %d: checks = %d, want %d", beam, w, got.Checks, seq.Checks)
			}
			if len(got.Groups) != len(seq.Groups) {
				t.Fatalf("beam %d workers %d: %d groups, want %d", beam, w, len(got.Groups), len(seq.Groups))
			}
			for i := range got.Groups {
				if !got.Groups[i].Equal(seq.Groups[i]) {
					t.Fatalf("beam %d workers %d: group %d differs", beam, w, i)
				}
			}
			if dc.Evals() != dcSeq.Evals() {
				t.Fatalf("beam %d workers %d: distance evals %d, want %d", beam, w, dc.Evals(), dcSeq.Evals())
			}
		}
	}
}
