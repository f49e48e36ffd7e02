package baselines

import (
	"context"
	"sort"
	"strings"
	"testing"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/metrics"
	"gecco/internal/procgen"
)

var bg = context.Background()

// mkSess builds a solver session for BLQ (which shares GECCO's candidate
// machinery through the session's frozen artifacts).
func mkSess(t *testing.T, log *eventlog.Log) *core.Session {
	t.Helper()
	sess, err := core.NewSession(log)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func groupingKey(gc [][]string) string {
	parts := make([]string, len(gc))
	for i, g := range gc {
		gg := append([]string(nil), g...)
		sort.Strings(gg)
		parts[i] = strings.Join(gg, ",")
	}
	sort.Strings(parts)
	return strings.Join(parts, " | ")
}

func TestBLQRespectsClassConstraints(t *testing.T) {
	log := procgen.RunningExampleTable1()
	set := constraints.NewSet(
		constraints.MustParse("|g| <= 3"),
		constraints.MustParse("cannotlink(rcp, acc)"),
	)
	res, _, err := BLQ(bg, mkSess(t, log), set, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %v", res.Diagnostics)
	}
	for _, gc := range res.GroupClasses {
		if len(gc) > 3 {
			t.Errorf("group %v exceeds size bound", gc)
		}
		joined := strings.Join(gc, ",")
		if strings.Contains(joined, "rcp") && strings.Contains(joined, "acc") {
			t.Errorf("cannot-link violated in %v", gc)
		}
	}
}

func TestBLQClassAttrConstraint(t *testing.T) {
	log := procgen.LoanLog(120, 3)
	set := constraints.NewSet(
		constraints.MustParse("|g| <= 4"),
		constraints.MustParse("distinct(class.org) <= 1"),
	)
	res, _, err := BLQ(bg, mkSess(t, log), set, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %v", res.Diagnostics)
	}
	for _, gc := range res.GroupClasses {
		orgs := map[byte]bool{}
		for _, c := range gc {
			orgs[c[0]] = true
		}
		if len(orgs) > 1 {
			t.Errorf("group %v mixes origin systems", gc)
		}
	}
}

// BL_Q candidates come from directed DFG paths only, a strictly weaker
// candidate universe than GECCO's DFG∞ with exclusive merging — so GECCO's
// optimum can only be at least as good.
func TestBLQNotBetterThanGecco(t *testing.T) {
	log := procgen.RunningExampleTable1()
	set := constraints.NewSet(constraints.MustParse("|g| <= 5"))
	blq, _, err := BLQ(bg, mkSess(t, log), set, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gecco, err := core.Run(log, set, core.Config{Mode: core.DFGUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	if !blq.Feasible || !gecco.Feasible {
		t.Fatal("both should be feasible")
	}
	if gecco.Distance > blq.Distance+1e-9 {
		t.Fatalf("GECCO %.4f worse than BL_Q %.4f", gecco.Distance, blq.Distance)
	}
}

func TestBLPPartitionCount(t *testing.T) {
	log := procgen.RunningExampleTable1()
	res, _, err := BLP(bg, eventlog.NewIndex(log), 4, instances.SplitOnRepeat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("BLP should always produce a partition")
	}
	if len(res.GroupClasses) > 4 || len(res.GroupClasses) < 1 {
		t.Fatalf("got %d groups, want <= 4", len(res.GroupClasses))
	}
	// Partition covers all 8 classes exactly once.
	seen := map[string]bool{}
	for _, gc := range res.GroupClasses {
		for _, c := range gc {
			if seen[c] {
				t.Fatalf("class %s in two groups", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d classes, want 8", len(seen))
	}
}

// The paper's Table VII comparison: at the same group count, GECCO's
// grouping is at least as cohesive (silhouette) as spectral partitioning.
func TestBLPVersusGeccoSilhouette(t *testing.T) {
	log := procgen.RunningExample(250, 43)
	x := eventlog.NewIndex(log)
	n := x.NumClasses()
	target := n / 2
	set := constraints.NewSet(constraints.GroupCount{Op: constraints.EQ, N: target})
	gecco, err := core.Run(log, set, core.Config{Mode: core.Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	blp, _, err := BLP(bg, eventlog.NewIndex(log), target, instances.SplitOnRepeat)
	if err != nil {
		t.Fatal(err)
	}
	if !gecco.Feasible || !blp.Feasible {
		t.Skip("target group count infeasible on this simulation")
	}
	sg := metrics.Silhouette(x, gecco.Grouping.Groups)
	sp := metrics.Silhouette(x, blp.Grouping.Groups)
	if sg < sp-0.25 {
		t.Fatalf("GECCO silhouette %.3f far below BL_P %.3f", sg, sp)
	}
}

func TestBLGStopsAtLocalOptimum(t *testing.T) {
	log := procgen.RunningExampleTable1()
	set := constraints.NewSet(constraints.MustParse("distinct(role) <= 1"))
	res, _, err := BLG(bg, eventlog.NewIndex(log), set, instances.SplitOnRepeat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("greedy should solve the role-constraint problem")
	}
	// Greedy respects the constraint.
	for _, gc := range res.GroupClasses {
		mgr, clerk := false, false
		for _, c := range gc {
			if c == "acc" || c == "rej" {
				mgr = true
			} else {
				clerk = true
			}
		}
		if mgr && clerk {
			t.Errorf("greedy group %v mixes roles", gc)
		}
	}
	// Greedy cannot beat the global optimum (Exh on the same problem).
	opt, err := core.Run(log, set, core.Config{Mode: core.Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance < opt.Distance-1e-9 {
		t.Fatalf("greedy %.4f beats exhaustive optimum %.4f", res.Distance, opt.Distance)
	}
}

func TestBLGInfeasibleWhenSingletonViolates(t *testing.T) {
	log := procgen.RunningExampleTable1()
	// Every singleton violates sum >= 101 (events are 60s), and greedy has
	// no repair mechanism.
	set := constraints.NewSet(constraints.MustParse("sum(duration) >= 101"))
	res, _, err := BLG(bg, eventlog.NewIndex(log), set, instances.SplitOnRepeat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("greedy cannot start from violating singletons, got %s", groupingKey(res.GroupClasses))
	}
	if res.Diagnostics == nil {
		t.Error("missing diagnostics")
	}
}
