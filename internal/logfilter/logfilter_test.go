package logfilter

import (
	"context"
	"testing"

	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

var bg = context.Background()

func mkLog(seqs ...[]string) *eventlog.Log {
	log := &eventlog.Log{Name: "t"}
	for i, seq := range seqs {
		tr := eventlog.Trace{ID: string(rune('a' + i))}
		for _, c := range seq {
			tr.Events = append(tr.Events, eventlog.Event{Class: c})
		}
		log.Traces = append(log.Traces, tr)
	}
	return log
}

func idx(log *eventlog.Log) *eventlog.Index { return eventlog.NewIndex(log) }

// must unwraps a filter result into a pointer log for assertions; an
// uncancelled filter cannot fail.
func must(t *testing.T) func(*eventlog.Index, error) *eventlog.Log {
	return func(x *eventlog.Index, err error) *eventlog.Log {
		t.Helper()
		if err != nil {
			t.Fatalf("filter: %v", err)
		}
		return x.ReconstructLog()
	}
}

func TestTopVariants(t *testing.T) {
	log := mkLog(
		[]string{"a", "b"}, []string{"a", "b"}, []string{"a", "b"},
		[]string{"a", "c"},
	)
	out := must(t)(TopVariants(bg, idx(log), 0.5))
	if len(out.Traces) != 3 {
		t.Fatalf("kept %d traces, want the 3 of the dominant variant", len(out.Traces))
	}
	all := must(t)(TopVariants(bg, idx(log), 1))
	if len(all.Traces) != 4 {
		t.Fatalf("fraction 1 should keep everything, got %d", len(all.Traces))
	}
	// Input untouched.
	if len(log.Traces) != 4 {
		t.Fatal("input mutated")
	}
}

func TestMinVariantCount(t *testing.T) {
	log := mkLog([]string{"a"}, []string{"a"}, []string{"b"})
	out := must(t)(MinVariantCount(bg, idx(log), 2))
	if len(out.Traces) != 2 {
		t.Fatalf("kept %d, want 2", len(out.Traces))
	}
}

func TestProjectAndDropClasses(t *testing.T) {
	log := mkLog([]string{"a", "b", "c"}, []string{"b"})
	proj := must(t)(ProjectClasses(bg, idx(log), []string{"a", "c"}))
	if len(proj.Traces) != 1 || proj.Traces[0].Variant() != "a,c" {
		t.Fatalf("projection = %+v", proj.Traces)
	}
	drop := must(t)(DropClasses(bg, idx(log), []string{"b"}))
	if len(drop.Traces) != 1 || drop.Traces[0].Variant() != "a,c" {
		t.Fatalf("drop = %+v", drop.Traces)
	}
	// Complementarity: dropping nothing preserves all traces.
	if got := must(t)(DropClasses(bg, idx(log), nil)); len(got.Traces) != 2 {
		t.Fatal("no-op drop lost traces")
	}
}

func TestSampleDeterministic(t *testing.T) {
	log := procgen.RunningExample(200, 3)
	a := must(t)(Sample(bg, idx(log), 0.5, 42))
	b := must(t)(Sample(bg, idx(log), 0.5, 42))
	if len(a.Traces) != len(b.Traces) {
		t.Fatal("same seed produced different samples")
	}
	if len(a.Traces) == 0 || len(a.Traces) == len(log.Traces) {
		t.Fatalf("sample size %d implausible", len(a.Traces))
	}
	for i := range a.Traces {
		if a.Traces[i].ID != b.Traces[i].ID {
			t.Fatal("sample order differs")
		}
	}
}

func TestHead(t *testing.T) {
	log := mkLog([]string{"a"}, []string{"b"}, []string{"c"})
	if got := must(t)(Head(bg, idx(log), 2)); len(got.Traces) != 2 || got.Traces[1].Variant() != "b" {
		t.Fatalf("head = %+v", got.Traces)
	}
	if got := must(t)(Head(bg, idx(log), 99)); len(got.Traces) != 3 {
		t.Fatal("over-long head should clamp")
	}
}

// Filters rebuild through the Builder: mutating the output must not affect
// the input log the index was built from.
func TestDeepCopySemantics(t *testing.T) {
	log := procgen.RunningExampleTable1()
	out := must(t)(TopVariants(bg, idx(log), 1))
	out.Traces[0].Events[0].Class = "MUTATED"
	out.Traces[0].Events[0].SetAttr("k", eventlog.Int(1))
	if log.Traces[0].Events[0].Class == "MUTATED" {
		t.Fatal("filter shares event slices with input")
	}
	if _, ok := log.Traces[0].Events[0].Attrs["k"]; ok {
		t.Fatal("filter shares attribute maps with input")
	}
}

// The columnar kernel carries every attribute layer through a filter: log
// name, event attributes, and (unlike the legacy pointer-log clone) trace
// attributes survive the round trip.
func TestFilterPreservesAttributes(t *testing.T) {
	log := procgen.RunningExampleTable1()
	log.Traces[0].SetAttr("channel", eventlog.String("web"))
	out := must(t)(TopVariants(bg, idx(log), 1))
	if out.Name != log.Name {
		t.Fatalf("log name %q lost (want %q)", out.Name, log.Name)
	}
	if v, ok := out.Traces[0].Attrs["channel"]; !ok || v.AsString() != "web" {
		t.Fatal("trace attribute lost in filter round trip")
	}
	role, ok := log.Traces[0].Events[0].Attrs[eventlog.AttrRole]
	if !ok {
		t.Skip("running example carries no role on the first event")
	}
	got, ok := out.Traces[0].Events[0].Attrs[eventlog.AttrRole]
	if !ok || got.AsString() != role.AsString() {
		t.Fatal("event attribute lost in filter round trip")
	}
}

// Cancelling the context aborts a copy and surfaces the cause.
func TestFilterCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Head(ctx, idx(procgen.RunningExampleTable1()), 2); err == nil {
		t.Fatal("cancelled filter returned no error")
	}
}

// Preprocessing composes with abstraction: filtering to the dominant
// variants keeps the pipeline runnable end to end.
func TestComposesWithIndex(t *testing.T) {
	log := procgen.RunningExample(300, 7)
	x, err := TopVariants(bg, idx(log), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if x.NumClasses() == 0 || x.NumTraces() == 0 {
		t.Fatal("filtered log unusable")
	}
	if x.NumTraces() >= len(log.Traces) {
		t.Fatal("filter kept every trace of a noisy simulation")
	}
}
