package abstraction

import (
	"strings"
	"testing"

	"gecco/internal/bitset"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/procgen"
)

func runningExampleGrouping(x *eventlog.Index) Grouping {
	mk := func(names ...string) bitset.Set {
		g, _ := x.GroupFromNames(names)
		return g
	}
	return Grouping{
		Groups: []bitset.Set{
			mk(procgen.RCP, procgen.CKC, procgen.CKT),
			mk(procgen.ACC),
			mk(procgen.REJ),
			mk(procgen.PRIO, procgen.INF, procgen.ARV),
		},
		Names: []string{"clrk1", "acc", "rej", "clrk2"},
	}
}

func variant(tr *eventlog.Trace) string { return tr.Variant() }

// applyLog is Apply under split-on-repeat with the abstracted index rebuilt
// as a *Log, for assertions on traces and events.
func applyLog(t *testing.T, x *eventlog.Index, g Grouping, strategy Strategy) *eventlog.Log {
	t.Helper()
	out, err := Apply(x, g, strategy, instances.SplitOnRepeat)
	if err != nil {
		t.Fatal(err)
	}
	return out.ReconstructLog()
}

// §III-B: σ1 abstracts to ⟨clrk1, acc, clrk2⟩.
func TestCompletionOnlySigma1(t *testing.T) {
	x := eventlog.NewIndex(procgen.RunningExampleTable1())
	out := applyLog(t, x, runningExampleGrouping(x), CompletionOnly)
	if got := variant(&out.Traces[0]); got != "clrk1,acc,clrk2" {
		t.Fatalf("σ1 abstracted to %q, want clrk1,acc,clrk2", got)
	}
	// σ4 restarts once: ⟨clrk1, rej, clrk1, acc, clrk2⟩.
	if got := variant(&out.Traces[3]); got != "clrk1,rej,clrk1,acc,clrk2" {
		t.Fatalf("σ4 abstracted to %q", got)
	}
}

// §V-D: the σ5 example — interleaving hidden by completion-only, exposed by
// start+complete.
func TestStartCompleteInterleaving(t *testing.T) {
	seq := []string{procgen.RCP, procgen.CKC, procgen.PRIO, procgen.ACC, procgen.INF, procgen.ARV}
	log := &eventlog.Log{Traces: []eventlog.Trace{{ID: "sigma5"}}}
	for _, c := range seq {
		log.Traces[0].Events = append(log.Traces[0].Events, eventlog.Event{Class: c})
	}
	x := eventlog.NewIndex(log)
	g := runningExampleGrouping(x)

	co := applyLog(t, x, g, CompletionOnly)
	if got := variant(&co.Traces[0]); got != "clrk1,acc,clrk2" {
		t.Fatalf("completion-only σ5 = %q", got)
	}

	sc := applyLog(t, x, g, StartComplete)
	got := variant(&sc.Traces[0])
	want := "clrk1+start,clrk1+complete,clrk2+start,acc,clrk2+complete"
	if got != want {
		t.Fatalf("start+complete σ5 = %q, want %q", got, want)
	}
}

func TestApplyRejectsNonCover(t *testing.T) {
	x := eventlog.NewIndex(procgen.RunningExampleTable1())
	g := runningExampleGrouping(x)
	// Drop one group: classes uncovered.
	bad := Grouping{Groups: g.Groups[:3], Names: g.Names[:3]}
	if _, err := Apply(x, bad, CompletionOnly, instances.SplitOnRepeat); err == nil {
		t.Fatal("expected error for uncovered classes")
	}
	// Overlapping groups.
	overlap := Grouping{
		Groups: append(append([]bitset.Set{}, g.Groups...), g.Groups[1]),
		Names:  append(append([]string{}, g.Names...), "dup"),
	}
	if _, err := Apply(x, overlap, CompletionOnly, instances.SplitOnRepeat); err == nil {
		t.Fatal("expected error for overlapping groups")
	}
}

func TestTimestampsCarriedOver(t *testing.T) {
	x := eventlog.NewIndex(procgen.RunningExampleTable1())
	out := applyLog(t, x, runningExampleGrouping(x), CompletionOnly)
	for _, tr := range out.Traces {
		var prev eventlog.Event
		for i, ev := range tr.Events {
			ts, ok := ev.Timestamp()
			if !ok {
				t.Fatalf("abstracted event without timestamp")
			}
			if i > 0 {
				prevTS, _ := prev.Timestamp()
				if ts.Before(prevTS) {
					t.Fatal("abstracted timestamps out of order")
				}
			}
			prev = ev
		}
	}
}

func TestAutoNames(t *testing.T) {
	x := eventlog.NewIndex(procgen.RunningExampleTable1())
	g := runningExampleGrouping(x)
	names := AutoNames(x, g.Groups, "Act ")
	if names[1] != procgen.ACC || names[2] != procgen.REJ {
		t.Errorf("singletons should keep class names, got %v", names)
	}
	if !strings.HasPrefix(names[0], "Act ") || !strings.HasPrefix(names[3], "Act ") {
		t.Errorf("multi-class groups should get prefixed names, got %v", names)
	}
	if names[0] == names[3] {
		t.Error("distinct groups share a name")
	}
}

// Abstraction must preserve the number of traces and never lengthen a trace
// under CompletionOnly.
func TestInvariantsOnSimulatedLog(t *testing.T) {
	log := procgen.RunningExample(250, 17)
	x := eventlog.NewIndex(log)
	g := runningExampleGrouping(x)
	out := applyLog(t, x, g, CompletionOnly)
	if len(out.Traces) != len(log.Traces) {
		t.Fatalf("trace count changed: %d -> %d", len(log.Traces), len(out.Traces))
	}
	for i := range out.Traces {
		if len(out.Traces[i].Events) > len(log.Traces[i].Events) {
			t.Fatalf("trace %d grew under completion-only abstraction", i)
		}
		if len(log.Traces[i].Events) > 0 && len(out.Traces[i].Events) == 0 {
			t.Fatalf("trace %d vanished", i)
		}
	}
}

// Start+complete abstraction carries XES lifecycle annotations.
func TestLifecycleAnnotations(t *testing.T) {
	x := eventlog.NewIndex(procgen.RunningExampleTable1())
	out := applyLog(t, x, runningExampleGrouping(x), StartComplete)
	starts, completes := 0, 0
	for _, tr := range out.Traces {
		for _, ev := range tr.Events {
			if v, ok := ev.Attrs[eventlog.AttrLifecycle]; ok {
				switch v.Str {
				case "start":
					starts++
					if !strings.HasSuffix(ev.Class, "+start") {
						t.Fatalf("lifecycle/suffix mismatch on %q", ev.Class)
					}
				case "complete":
					completes++
				}
			}
		}
	}
	if starts == 0 || starts != completes {
		t.Fatalf("starts=%d completes=%d; want balanced and nonzero", starts, completes)
	}
}
