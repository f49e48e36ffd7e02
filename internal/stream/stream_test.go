package stream

import (
	"context"
	"math"
	"reflect"
	"testing"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

func roleSet() *constraints.Set {
	return constraints.NewSet(constraints.MustParse("distinct(role) <= 1"))
}

func TestOnlineMatchesOfflineOnStableStream(t *testing.T) {
	log := procgen.RunningExample(300, 3)
	a := New(roleSet(), Config{WindowSize: 100, RefreshEvery: 50, DriftThreshold: DefaultDriftThreshold})
	var abstracted []eventlog.Trace
	for _, tr := range log.Traces {
		out, err := a.Push(tr)
		if err != nil {
			t.Fatal(err)
		}
		abstracted = append(abstracted, out)
	}
	if a.Regroupings == 0 {
		t.Fatal("no regrouping happened")
	}
	// After warm-up, traces must be genuinely abstracted (shorter than or
	// equal to originals, and using activity names).
	shorter := 0
	for i := 100; i < len(abstracted); i++ {
		if len(abstracted[i].Events) < len(log.Traces[i].Events) {
			shorter++
		}
		if len(abstracted[i].Events) > len(log.Traces[i].Events) {
			t.Fatalf("trace %d grew", i)
		}
	}
	if shorter == 0 {
		t.Fatal("no trace was compressed after warm-up")
	}
}

func TestDriftTriggersRegroup(t *testing.T) {
	// Phase 1: running example. Phase 2: a completely different process.
	phase1 := procgen.RunningExample(120, 5)
	phase2 := &eventlog.Log{}
	for i := 0; i < 120; i++ {
		tr := eventlog.Trace{ID: "p2"}
		for _, c := range []string{"x1", "x2", "x3", "x4"} {
			ev := eventlog.Event{Class: c}
			ev.SetAttr(eventlog.AttrRole, eventlog.String("newrole"))
			tr.Events = append(tr.Events, ev)
		}
		phase2.Traces = append(phase2.Traces, tr)
	}
	a := New(roleSet(), Config{WindowSize: 60, RefreshEvery: 1000, DriftThreshold: 0.3})
	for _, tr := range phase1.Traces {
		if _, err := a.Push(tr); err != nil {
			t.Fatal(err)
		}
	}
	regroupsBefore := a.Regroupings
	for _, tr := range phase2.Traces {
		if _, err := a.Push(tr); err != nil {
			t.Fatal(err)
		}
	}
	if a.Regroupings <= regroupsBefore {
		t.Fatal("drift did not trigger a regrouping")
	}
	if a.Drifts == 0 {
		t.Fatal("drift counter not incremented")
	}
	// After adaptation, the new process's classes must be grouped.
	out, err := a.Push(phase2.Traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Events) >= 4 {
		t.Fatalf("post-drift trace not abstracted: %d events", len(out.Events))
	}
}

func TestUnknownClassesPassThrough(t *testing.T) {
	a := New(roleSet(), Config{WindowSize: 50, RefreshEvery: 10, DriftThreshold: DefaultDriftThreshold})
	// Warm up on the running example.
	for _, tr := range procgen.RunningExample(30, 9).Traces {
		if _, err := a.Push(tr); err != nil {
			t.Fatal(err)
		}
	}
	novel := eventlog.Trace{ID: "n", Events: []eventlog.Event{{Class: "never-seen"}}}
	out, err := a.Push(novel)
	if err != nil {
		t.Fatal(err)
	}
	// Regrouping may or may not have fired on this push; either way the
	// novel class must survive (as itself or a singleton activity).
	if len(out.Events) != 1 {
		t.Fatalf("novel-class trace has %d events", len(out.Events))
	}
}

// recountEdges rebuilds the directly-follows multiset from scratch, as the
// ground truth the incremental bookkeeping must match.
func recountEdges(traces []eventlog.Trace) map[[2]string]int {
	out := make(map[[2]string]int)
	for _, tr := range traces {
		for j := 1; j < len(tr.Events); j++ {
			out[[2]string{tr.Events[j-1].Class, tr.Events[j].Class}]++
		}
	}
	return out
}

func TestWindowBoundedAndEvictionRefcounts(t *testing.T) {
	const window = 25
	a := New(roleSet(), Config{WindowSize: window, RefreshEvery: 1000, DriftThreshold: DefaultDriftThreshold})
	var pushed []eventlog.Trace
	for _, tr := range procgen.RunningExample(200, 11).Traces {
		if _, err := a.Push(tr); err != nil {
			t.Fatal(err)
		}
		pushed = append(pushed, tr)
		lo := len(pushed) - window
		if lo < 0 {
			lo = 0
		}
		want := recountEdges(pushed[lo:])
		if !reflect.DeepEqual(a.edges, want) {
			t.Fatalf("after %d pushes: incremental edge multiset diverged from recount\n got %v\nwant %v",
				len(pushed), a.edges, want)
		}
	}
	if a.WindowLen() > window {
		t.Fatalf("window grew to %d", a.WindowLen())
	}
	// The materialised window must be exactly the last `window` arrivals in
	// order.
	got := a.windowLog().Traces
	want := pushed[len(pushed)-window:]
	if !reflect.DeepEqual(got, want) {
		t.Fatal("windowLog is not the last arrivals in order")
	}
}

// TestDriftScoreMatchesRecomputation pins the incremental Jaccard terms
// against a from-scratch recomputation across fills, evictions and a fixed
// basis, using a stubbed pipeline so no real regrouping interferes.
func TestDriftScoreMatchesRecomputation(t *testing.T) {
	var basisWindow []eventlog.Trace
	stub := func(ctx context.Context, window *eventlog.Log, set *constraints.Set, cfg core.Config) (*core.Result, error) {
		basisWindow = append([]eventlog.Trace(nil), window.Traces...)
		return &core.Result{}, nil // infeasible: no grouping, but a basis is set
	}
	const window = 20
	a := New(roleSet(), Config{WindowSize: window, RefreshEvery: 1 << 30, DriftThreshold: -1, RunPipeline: stub})

	phase1 := procgen.RunningExample(30, 7).Traces
	phase2 := procgen.LoanLog(60, 7).Traces
	var pushed []eventlog.Trace
	for _, tr := range append(append([]eventlog.Trace(nil), phase1...), phase2...) {
		if _, err := a.Push(tr); err != nil {
			t.Fatal(err)
		}
		pushed = append(pushed, tr)
		lo := len(pushed) - window
		if lo < 0 {
			lo = 0
		}
		current := recountEdges(pushed[lo:])
		basis := recountEdges(basisWindow)
		inter, union := 0, len(basis)
		for e := range current {
			if _, ok := basis[e]; ok {
				inter++
			} else {
				union++
			}
		}
		want := 0.0
		if union > 0 {
			want = 1 - float64(inter)/float64(union)
		}
		if math.Abs(a.DriftScore()-want) > 1e-12 {
			t.Fatalf("after %d pushes: DriftScore %v, recomputed %v", len(pushed), a.DriftScore(), want)
		}
	}
	if a.Regroupings != 1 {
		t.Fatalf("stub pipeline ran %d times, want 1 (initial only)", a.Regroupings)
	}
}

// TestInfeasibleBackoff pins the satellite fix: while the last solve was
// infeasible, arrivals must NOT re-run the pipeline; only the refresh
// cadence (or drift) may retry.
func TestInfeasibleBackoff(t *testing.T) {
	calls := 0
	stub := func(ctx context.Context, window *eventlog.Log, set *constraints.Set, cfg core.Config) (*core.Result, error) {
		calls++
		return &core.Result{}, nil // always infeasible
	}
	a := New(roleSet(), Config{WindowSize: 50, RefreshEvery: 10, DriftThreshold: -1, RunPipeline: stub})
	traces := procgen.RunningExample(40, 13).Traces
	for _, tr := range traces {
		out, err := a.Push(tr)
		if err != nil {
			t.Fatal(err)
		}
		// Infeasible grouping passes arrivals through unchanged.
		if !reflect.DeepEqual(out, tr) {
			t.Fatal("infeasible stream did not pass trace through")
		}
	}
	// 1 initial + one retry per full refresh interval; the initial regroup
	// resets the cadence, so with 40 arrivals and RefreshEvery=10 that is
	// 1 + 3 = 4 — not 40 as with the per-arrival retry bug.
	if want := 4; calls != want {
		t.Fatalf("pipeline ran %d times for %d arrivals, want %d", calls, len(traces), want)
	}
	// None of those retries are drifts.
	if a.Drifts != 0 {
		t.Fatalf("infeasible retries were counted as %d drifts", a.Drifts)
	}
}

// TestDriftThresholdSentinel pins the new Config semantics: negative
// disables drift detection entirely; zero fires on any divergence.
func TestDriftThresholdSentinel(t *testing.T) {
	disjoint := func(id string, classes ...string) eventlog.Trace {
		tr := eventlog.Trace{ID: id}
		for _, c := range classes {
			ev := eventlog.Event{Class: c}
			ev.SetAttr(eventlog.AttrRole, eventlog.String("r-"+c))
			tr.Events = append(tr.Events, ev)
		}
		return tr
	}

	t.Run("negative disables", func(t *testing.T) {
		a := New(roleSet(), Config{WindowSize: 10, RefreshEvery: 1 << 30, DriftThreshold: -1})
		for i := 0; i < 5; i++ {
			if _, err := a.Push(disjoint("a", "a1", "a2")); err != nil {
				t.Fatal(err)
			}
		}
		// A structurally different process: massive drift, but disabled.
		for i := 0; i < 20; i++ {
			if _, err := a.Push(disjoint("b", "b1", "b2", "b3")); err != nil {
				t.Fatal(err)
			}
		}
		if a.Regroupings != 1 {
			t.Fatalf("disabled drift still regrouped: %d regroupings", a.Regroupings)
		}
		if a.DriftScore() == 0 {
			t.Fatal("drift score should be nonzero on a changed window")
		}
	})

	t.Run("zero fires on any divergence", func(t *testing.T) {
		a := New(roleSet(), Config{WindowSize: 100, RefreshEvery: 1 << 30, DriftThreshold: 0})
		if _, err := a.Push(disjoint("a", "a1", "a2")); err != nil {
			t.Fatal(err)
		}
		before := a.Regroupings // the initial regroup
		if before != 1 {
			t.Fatalf("expected exactly the initial regroup, got %d", before)
		}
		// One novel edge is any-drift: the next push must regroup.
		if _, err := a.Push(disjoint("b", "b1", "b2")); err != nil {
			t.Fatal(err)
		}
		if a.Regroupings != before+1 {
			t.Fatalf("zero threshold did not fire on a novel edge (%d regroupings)", a.Regroupings)
		}
		if a.Drifts != 1 {
			t.Fatalf("drift regroup not accounted as drift: %d", a.Drifts)
		}
	})
}

func TestGroupingAccessorDeterministic(t *testing.T) {
	a := New(roleSet(), Config{WindowSize: 50, RefreshEvery: 10, DriftThreshold: DefaultDriftThreshold})
	if a.Grouping() != nil {
		t.Fatal("grouping before first regroup should be nil")
	}
	for _, tr := range procgen.RunningExample(20, 13).Traces {
		if _, err := a.Push(tr); err != nil {
			t.Fatal(err)
		}
	}
	g := a.Grouping()
	if g == nil {
		t.Fatal("grouping missing after regroup")
	}
	total := 0
	for _, classes := range g {
		total += len(classes)
		for i := 1; i < len(classes); i++ {
			if classes[i-1] >= classes[i] {
				t.Fatalf("group classes not sorted: %v", classes)
			}
		}
	}
	if total != 8 {
		t.Fatalf("grouping covers %d classes, want 8", total)
	}
	if names := a.ActivityNames(); len(names) != len(g) {
		t.Fatalf("%d activity names for %d groups", len(names), len(g))
	}
	// Repeated calls and a re-run of the identical stream agree exactly.
	if !reflect.DeepEqual(g, a.Grouping()) {
		t.Fatal("Grouping() not stable across calls")
	}
}

// TestIdenticalStreamsIdenticalOutput is the end-to-end determinism pin:
// two abstractors fed the same stream produce deeply equal outputs, trace
// by trace, and identical groupings and counters.
func TestIdenticalStreamsIdenticalOutput(t *testing.T) {
	traces := append(procgen.RunningExample(60, 17).Traces, procgen.LoanLog(60, 17).Traces...)
	cfg := Config{WindowSize: 40, RefreshEvery: 25, DriftThreshold: DefaultDriftThreshold}
	a, b := New(roleSet(), cfg), New(roleSet(), cfg)
	for i, tr := range traces {
		outA, errA := a.Push(tr)
		outB, errB := b.Push(tr)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trace %d: error divergence: %v vs %v", i, errA, errB)
		}
		if !reflect.DeepEqual(outA, outB) {
			t.Fatalf("trace %d: output divergence:\n a: %+v\n b: %+v", i, outA, outB)
		}
	}
	if a.Regroupings != b.Regroupings || a.Drifts != b.Drifts {
		t.Fatalf("counter divergence: (%d,%d) vs (%d,%d)", a.Regroupings, a.Drifts, b.Regroupings, b.Drifts)
	}
	if !reflect.DeepEqual(a.Grouping(), b.Grouping()) {
		t.Fatal("grouping divergence between identical streams")
	}
}

func TestPushContextCancellation(t *testing.T) {
	a := New(roleSet(), Config{WindowSize: 10, RefreshEvery: 5, DriftThreshold: -1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.PushContext(ctx, procgen.RunningExample(1, 3).Traces[0]); err == nil {
		t.Fatal("cancelled context did not fail the initial regroup")
	}
}

// TestPushAllocsIndependentOfWindow is the exact counterpart of
// gecco-bench -stream-bench's flat-in-the-window floor: with regrouping out
// of reach, an arrival allocates as much at W=2000 as at W=200, so no
// arrival allocates per windowed trace. A rescan that allocates nothing
// would still pass, which is why -stream-bench keeps its timed check.
func TestPushAllocsIndependentOfWindow(t *testing.T) {
	const warmup, runs = 2000, 200
	traces := procgen.RunningExample(warmup+runs+1, 41).Traces
	allocs := make([]float64, 0, 2)
	for _, window := range []int{200, 2000} {
		a := New(roleSet(), Config{
			WindowSize:     window,
			RefreshEvery:   1 << 30,
			DriftThreshold: -1,
			Pipeline:       core.Config{Mode: core.DFGUnbounded},
		})
		for _, tr := range traces[:warmup] {
			if _, err := a.Push(tr); err != nil {
				t.Fatal(err)
			}
		}
		regroupings, next := a.Regroupings, warmup
		allocs = append(allocs, testing.AllocsPerRun(runs, func() {
			if _, err := a.Push(traces[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}))
		if a.Regroupings != regroupings {
			t.Fatalf("W=%d: %d regroupings during the measured arrivals", window, a.Regroupings-regroupings)
		}
	}
	t.Logf("allocations per arrival: %v at W=200, %v at W=2000", allocs[0], allocs[1])
	if allocs[0] != allocs[1] {
		t.Fatalf("allocations per arrival grow with the window: %v at W=200, %v at W=2000", allocs[0], allocs[1])
	}
}
