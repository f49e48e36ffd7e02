package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"gecco/internal/baselines"
	"gecco/internal/core"
	"gecco/internal/discovery"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/metrics"
	"gecco/internal/procgen"
)

// smallLogs returns a fast subset of the collection for harness tests.
func smallLogs(t *testing.T) []*eventlog.Log {
	t.Helper()
	specs := procgen.CollectionSpecs()
	return []*eventlog.Log{
		procgen.BuildLog(specs[8]),  // 4 classes, high duration
		procgen.BuildLog(specs[6]),  // 8 classes, single variant
		procgen.BuildLog(specs[10]), // 16 classes, class attr, high duration
	}
}

func quickOpts(logs []*eventlog.Log) Options {
	return Options{Logs: logs, MaxChecks: 3000, SolverTimeout: 2 * time.Second}
}

func TestBuildSetApplicability(t *testing.T) {
	specs := procgen.CollectionSpecs()
	withAttr := eventlog.NewIndex(procgen.BuildLog(specs[10]))
	withoutAttr := eventlog.NewIndex(procgen.BuildLog(specs[8:9][0]))
	_ = withoutAttr
	noAttrLog := procgen.BuildLog(specs[1]) // [15] has no class attribute
	noAttr := eventlog.NewIndex(noAttrLog)

	if _, ok := BuildSet(SetBL3, withAttr); !ok {
		t.Error("BL3 should apply to class-attribute logs")
	}
	if _, ok := BuildSet(SetBL3, noAttr); ok {
		t.Error("BL3 must be inapplicable without a class-level attribute")
	}
	for _, id := range AllSets() {
		if id == SetBL3 {
			continue
		}
		if _, ok := BuildSet(id, noAttr); !ok {
			t.Errorf("set %s should apply to every log", id)
		}
	}
}

func TestBuildSetShapes(t *testing.T) {
	x := eventlog.NewIndex(procgen.RunningExampleTable1())
	set, _ := BuildSet(SetC2, x)
	if len(set.Instance) != 3 || len(set.Grouping) != 1 || len(set.Class) != 1 {
		t.Fatalf("C2 shape: %d class, %d instance, %d grouping", len(set.Class), len(set.Instance), len(set.Grouping))
	}
	set, _ = BuildSet(SetBL4, x)
	lo, hi := set.GroupBounds()
	if lo != 4 || hi != 4 { // 8 classes / 2
		t.Fatalf("BL4 bounds = (%d,%d), want (4,4)", lo, hi)
	}
	set, _ = BuildSet(SetBL2, x)
	if len(set.Class) != 2 {
		t.Fatalf("BL2 should have size cap + cannot-link, got %d class constraints", len(set.Class))
	}
}

func TestFrequentPairDeterministic(t *testing.T) {
	x := eventlog.NewIndex(procgen.RunningExampleTable1())
	a1, b1 := frequentPair(x)
	a2, b2 := frequentPair(x)
	if a1 != a2 || b1 != b2 {
		t.Fatal("frequentPair not deterministic")
	}
	if a1 == b1 {
		t.Fatal("frequentPair returned the same class twice")
	}
}

func TestRunProblemSolvesA(t *testing.T) {
	logs := smallLogs(t)
	sess, err := core.NewSession(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	m := RunProblemSession(context.Background(), sess, SetA, core.Exhaustive, quickOpts(logs))
	if !m.Applicable || !m.Solved {
		t.Fatalf("A on the 4-class log should solve: %+v", m)
	}
	if m.SRed < 0 || m.SRed > 1 {
		t.Fatalf("size reduction %f out of range", m.SRed)
	}
}

func TestTable5ShapeOnSubset(t *testing.T) {
	logs := smallLogs(t)
	rows := Table5(context.Background(), quickOpts(logs))
	if len(rows) != len(AllSets()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(AllSets()))
	}
	byLabel := map[string]Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	// Shape assertions mirroring Table V's qualitative claims:
	// A and BL1 always solvable; C2 at most as solvable as M and C1.
	if byLabel["A"].Solved != 1 {
		t.Errorf("A solved = %f, want 1", byLabel["A"].Solved)
	}
	if byLabel["BL1"].Solved != 1 {
		t.Errorf("BL1 solved = %f, want 1", byLabel["BL1"].Solved)
	}
	if byLabel["C2"].Solved > byLabel["M"].Solved+1e-9 {
		t.Errorf("C2 (%f) should not exceed M (%f)", byLabel["C2"].Solved, byLabel["M"].Solved)
	}
	if byLabel["C2"].Solved > byLabel["C1"].Solved+1e-9 {
		t.Errorf("C2 (%f) should not exceed C1 (%f)", byLabel["C2"].Solved, byLabel["C1"].Solved)
	}
	// BL3 applies only to the class-attribute log(s) in the subset.
	if byLabel["BL3"].N >= byLabel["A"].N {
		t.Errorf("BL3 applicable on %d problems, A on %d; BL3 must be fewer", byLabel["BL3"].N, byLabel["A"].N)
	}
}

func TestTable6ConfigurationsOrdered(t *testing.T) {
	logs := smallLogs(t)
	rows := Table6(context.Background(), quickOpts(logs))
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	exh, dfgk := rows[0], rows[2]
	if exh.Label != "Exh" || rows[1].Label != "DFG∞" || dfgk.Label != "DFGk" {
		t.Fatalf("labels %v", []string{rows[0].Label, rows[1].Label, rows[2].Label})
	}
	// The beam configuration cannot achieve a larger size reduction than
	// exhaustive on solved problems... on tiny logs they often tie; just
	// sanity-check ranges.
	for _, r := range rows {
		if r.Solved < 0 || r.Solved > 1 || r.SRed < 0 || r.SRed > 1 {
			t.Fatalf("row %s out of range: %+v", r.Label, r)
		}
	}
}

func TestTable7BaselineShape(t *testing.T) {
	logs := smallLogs(t)
	rows := Table7(context.Background(), quickOpts(logs))
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	byLabel := map[string]Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	// The paper's headline claims, in aggregate over the subset:
	// BL_G solves at most as many problems as DFGk and reduces size less.
	g, blg := byLabel["A,M,N DFGk"], byLabel["A,M,N BL_G"]
	if blg.Solved > g.Solved+1e-9 {
		t.Errorf("BL_G solved %f > DFGk %f", blg.Solved, g.Solved)
	}
	// BL_P and Exh target the same group count, so size reduction ties.
	p, blp := byLabel["BL4 Exh"], byLabel["BL4 BL_P"]
	if blp.Solved > 0 && p.Solved > 0 {
		if diff := p.SRed - blp.SRed; diff < -0.05 {
			t.Errorf("BL4 size reductions should be close: Exh %f vs BL_P %f", p.SRed, blp.SRed)
		}
	}
}

// TestCRedFromAbstractedIndex: scoring reads the abstracted log as the
// Index the solver or baseline built. On the quick Table VI problems and
// the Table VII baselines over the same logs, CRed equals the value from
// that Index's round trip through an *eventlog.Log and NewIndex, the path
// scoring took before.
func TestCRedFromAbstractedIndex(t *testing.T) {
	ctx := context.Background()
	logs := QuickLogs(procgen.Collection())
	cfg := Options{MaxChecks: QuickMaxChecks, Workers: 1}
	// check scores one run both ways and counts it when it solved.
	check := func(t *testing.T, solved map[string]int, name string, sess *core.Session, res *core.Result, abstracted *eventlog.Index, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := evaluate(ctx, sess, res, abstracted, 0)
		if !m.Solved {
			return
		}
		want, err := metrics.ComplexityReduction(ctx, sess.Index(), eventlog.NewIndex(abstracted.ReconstructLog()), discovery.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.CRed != want {
			t.Errorf("%s: CRed %v, through a *Log %v", name, m.CRed, want)
		}
		solved[name]++
	}
	// Each configuration and the baselines run in parallel, each with a
	// fresh session per log.
	run := func(name string, names []string, solve func(t *testing.T, solved map[string]int, sess *core.Session)) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			solved := map[string]int{}
			for _, log := range logs {
				sess, err := core.NewSession(log)
				if err != nil {
					t.Fatal(err)
				}
				solve(t, solved, sess)
			}
			for _, n := range names {
				if solved[n] == 0 {
					t.Errorf("%s solved none of the problems", n)
				}
			}
		})
	}
	for _, mode := range table6Modes {
		run(mode.String(), []string{mode.String()}, func(t *testing.T, solved map[string]int, sess *core.Session) {
			for _, id := range CoreSets() {
				set, _ := BuildSet(id, sess.Index())
				res, abstracted, err := sess.SolveIndex(ctx, set, cfg.config(mode))
				check(t, solved, mode.String(), sess, res, abstracted, err)
			}
		})
	}
	run("baselines", []string{"BL_Q", "BL_P", "BL_G"}, func(t *testing.T, solved map[string]int, sess *core.Session) {
		x := sess.Index()
		for _, id := range []SetID{SetBL1, SetBL2, SetBL3} {
			if set, ok := BuildSet(id, x); ok {
				res, abstracted, err := baselines.BLQ(ctx, sess, set, core.Config{})
				check(t, solved, "BL_Q", sess, res, abstracted, err)
			}
		}
		res, abstracted, err := baselines.BLP(ctx, x, max(1, x.NumClasses()/2), instances.SplitOnRepeat)
		check(t, solved, "BL_P", sess, res, abstracted, err)
		for _, id := range []SetID{SetA, SetM, SetN} {
			if set, ok := BuildSet(id, x); ok {
				res, abstracted, err := baselines.BLG(ctx, x, withoutGrouping(set), instances.SplitOnRepeat)
				check(t, solved, "BL_G", sess, res, abstracted, err)
			}
		}
	})
}

func TestPrintRowsIncludesPaperColumns(t *testing.T) {
	var buf bytes.Buffer
	rows := []Row{
		{Label: "A", Solved: 1, SRed: 0.5, CRed: 0.4, Sil: 0.1, Seconds: 2},
		{Label: "DFGk", Solved: 1, Seconds: 0.004},
	}
	PrintRows(&buf, "Table V", rows, PaperTable5)
	out := buf.String()
	if !strings.Contains(out, "Table V") || !strings.Contains(out, "146") {
		t.Fatalf("output missing paper reference: %s", out)
	}
	// A millisecond solve must not print as 0.00 beside slower rows.
	if !strings.Contains(out, " 0.004") {
		t.Fatalf("a 4 ms row lost its runtime: %s", out)
	}
}

func TestPrintTable3(t *testing.T) {
	var buf bytes.Buffer
	specs := procgen.CollectionSpecs()
	logs := make([]*eventlog.Log, len(specs))
	for i, s := range specs {
		// Tiny stand-ins: only stats are printed, so reuse one real log.
		s.Traces = 20
		logs[i] = procgen.BuildLog(s)
	}
	PrintTable3(&buf, logs)
	if !strings.Contains(buf.String(), "[26]") {
		t.Fatal("Table III output incomplete")
	}
}

func TestDetailTableAndMatrix(t *testing.T) {
	logs := smallLogs(t)[:1]
	details := DetailTable(context.Background(), core.DFGBeam, quickOpts(logs))
	if len(details) != len(AllSets()) {
		t.Fatalf("got %d details, want %d", len(details), len(AllSets()))
	}
	var buf bytes.Buffer
	PrintDetails(&buf, details)
	if !strings.Contains(buf.String(), "Set") {
		t.Fatal("detail header missing")
	}
	matrix := SolvedMatrix(details)
	if !strings.Contains(matrix, logs[0].Name) {
		t.Fatal("matrix missing log name")
	}
	// Every cell is one of y/n/-.
	for _, d := range details {
		if d.Applicable && d.Solved && d.SRed < 0 {
			t.Fatal("solved problem with negative size reduction")
		}
	}
}
