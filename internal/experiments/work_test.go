package experiments

import (
	"context"
	"fmt"
	"testing"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/distance"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/procgen"
)

// solverWork is the work of one Table VI configuration over the -quick
// problems: 5 logs × the 6 core sets.
type solverWork struct {
	candidates, checks, screened, pruned, coverNodes, evals, solved int
	dist                                                            string // Σ distance, %.9f
}

// TestSolverWorkCounters pins the exact work behind gecco-bench's -quick
// Table VI and its -eval-bench and -index-bench sections: candidates,
// constraint checks, screened checks, LB-pruned nodes, cover nodes, Eq. 1
// evaluations, solved problems and distances, and index bytes. Each is a
// function of the inputs alone, at any worker count, as long as no
// SolverTimeout cuts Step 2: that cut is the one that depends on the
// clock, so the test sets none, and it runs at one worker. A screen that
// stops deciding, a lower bound that stops pruning or a fatter index
// changes a count here on any machine. Re-record a count only when a
// change is meant to change the work.
func TestSolverWorkCounters(t *testing.T) {
	ctx := context.Background()
	opts := Options{MaxChecks: QuickMaxChecks, Workers: 1}

	want := map[core.Mode]solverWork{
		core.Exhaustive:   {candidates: 46689, checks: 62292, screened: 66575, coverNodes: 1528677, evals: 10401, solved: 26, dist: "39.905317255"},
		core.DFGUnbounded: {candidates: 12827, checks: 23010, screened: 21007, coverNodes: 120718, evals: 6545, solved: 26, dist: "42.752350273"},
		core.DFGBeam:      {candidates: 2531, checks: 3210, screened: 3636, pruned: 7179, coverNodes: 10282, evals: 1286, solved: 23, dist: "35.511256214"},
	}
	logs := QuickLogs(procgen.Collection())
	for _, mode := range table6Modes {
		t.Run("Table6/"+mode.String(), func(t *testing.T) {
			t.Parallel()
			var got solverWork
			var dist float64
			// A fresh session per log, so a configuration's Eq. 1
			// evaluations do not depend on which ran before it.
			for _, log := range logs {
				sess, err := core.NewSession(log)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range CoreSets() {
					set, _ := BuildSet(id, sess.Index())
					res, err := sess.Solve(ctx, set, opts.config(mode))
					if err != nil {
						t.Fatal(err)
					}
					got.candidates += res.NumCandidates
					got.checks += res.ConstraintChecks
					got.screened += res.ScreenedChecks
					got.pruned += res.LBPruned
					got.coverNodes += res.SolverNodes
					if res.Feasible {
						got.solved++
						dist += res.Distance
					}
				}
				got.evals += sess.Calc(instances.SplitOnRepeat).Evals()
			}
			got.dist = fmt.Sprintf("%.9f", dist)
			if got != want[mode] {
				t.Errorf("work over %d problems:\n got %+v\nwant %+v", len(logs)*len(CoreSets()), got, want[mode])
			}
		})
	}

	// The kernel section: instance verdicts over every pair and triple of
	// the loan log's classes, Eq. 1 on a cold memo over the same groups,
	// and the beam run.
	t.Run("Kernels", func(t *testing.T) {
		t.Parallel()
		type kernelWork struct {
			groups, hold, screened, evals int
			dist                          string // Σ distance, %.9f
			beamPruned, beamEvals         int
		}
		x, set, groups := KernelProblem()
		ev := constraints.NewEvaluator(x, set, instances.SplitOnRepeat)
		dc := distance.NewCalc(x, instances.SplitOnRepeat)
		got := kernelWork{groups: len(groups)}
		var dist float64
		for _, g := range groups {
			if ev.HoldsInstance(g) {
				got.hold++
			}
			dist += dc.Group(g)
		}
		got.screened, got.evals, got.dist = ev.ScreenHits(), dc.Evals(), fmt.Sprintf("%.9f", dist)

		log, cfg := BeamProblem(opts)
		sess, err := core.NewSession(log)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Solve(ctx, set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got.beamPruned, got.beamEvals = res.LBPruned, sess.Calc(cfg.Policy).Evals()
		want := kernelWork{groups: 2300, hold: 731, screened: 4600, evals: 2300, dist: "4688.309915898", beamPruned: 121, beamEvals: 53}
		if got != want {
			t.Errorf("kernel work:\n got %+v\nwant %+v", got, want)
		}
	})

	// The index section: estimated bytes of the index and of the *Log it
	// replaces. The index must stay at least 2x smaller.
	t.Run("Index", func(t *testing.T) {
		t.Parallel()
		want := map[string][3]int64{ // events, index bytes, *Log bytes
			"loan-application": {16442, 992026, 9757975},
			"running-example":  {12181, 681260, 5980778},
		}
		for _, log := range IndexLogs() {
			x := eventlog.NewIndex(log)
			got := [3]int64{int64(x.NumEvents()), x.EstimatedBytes(), eventlog.EstimateLogBytes(log)}
			if got != want[log.Name] {
				t.Errorf("%s: events, index bytes, log bytes = %v, want %v", log.Name, got, want[log.Name])
			}
			if 2*got[1] > got[2] {
				t.Errorf("%s: index of %d bytes is not 2x smaller than the %d-byte log", log.Name, got[1], got[2])
			}
		}
	})
}
