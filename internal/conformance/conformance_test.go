package conformance

import (
	"context"
	"math"
	"testing"

	"gecco/internal/discovery"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

// Test helpers running the ctx/Index API on pointer logs; uncancelled runs
// cannot fail, so errors fail the test immediately.

// selfEvaluate discovers a model from the log (without edge filtering)
// and evaluates the log against it; fitness is 1.0 by construction, while
// precision reflects how much of the model's generalisation the log
// exercises.
func selfEvaluate(t *testing.T, log *eventlog.Log) Result {
	t.Helper()
	return evaluate(t, log, discover(t, log, discovery.Options{EdgeFilter: 1, Epsilon: 2}))
}

func evaluate(t *testing.T, log *eventlog.Log, m *discovery.Model) Result {
	t.Helper()
	r, err := Evaluate(context.Background(), eventlog.NewIndex(log), m, Options{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return r
}

func discover(t *testing.T, log *eventlog.Log, opts discovery.Options) *discovery.Model {
	t.Helper()
	m, err := discovery.Discover(context.Background(), eventlog.NewIndex(log), opts)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	return m
}

func mkLog(seqs [][]string) *eventlog.Log {
	log := &eventlog.Log{}
	for _, seq := range seqs {
		tr := eventlog.Trace{ID: "t"}
		for _, c := range seq {
			tr.Events = append(tr.Events, eventlog.Event{Class: c})
		}
		log.Traces = append(log.Traces, tr)
	}
	return log
}

func TestSelfEvaluatePerfectFitness(t *testing.T) {
	for _, log := range []*eventlog.Log{
		mkLog([][]string{{"a", "b", "c"}, {"a", "c"}}),
		procgen.RunningExample(200, 3),
		procgen.LoanLog(100, 7),
	} {
		r := selfEvaluate(t, log)
		if math.Abs(r.Fitness-1) > 1e-12 {
			t.Fatalf("self-fitness = %f, want 1", r.Fitness)
		}
		if r.Precision <= 0 || r.Precision > 1 {
			t.Fatalf("precision %f out of range", r.Precision)
		}
	}
}

func TestUnfitLogDetected(t *testing.T) {
	model := discover(t, mkLog([][]string{{"a", "b", "c"}}), discovery.Options{EdgeFilter: 1})
	// b,a,c reverses an edge and starts wrongly.
	bad := mkLog([][]string{{"b", "a", "c"}})
	r := evaluate(t, bad, model)
	if r.Fitness >= 0.8 {
		t.Fatalf("reversed trace should lose fitness, got %f", r.Fitness)
	}
}

func TestUnknownClassesAreMisfits(t *testing.T) {
	model := discover(t, mkLog([][]string{{"a", "b"}}), discovery.Options{EdgeFilter: 1})
	alien := mkLog([][]string{{"x", "y"}})
	r := evaluate(t, alien, model)
	if r.Fitness != 0 {
		t.Fatalf("alien log fitness = %f, want 0", r.Fitness)
	}
}

func TestPrecisionPenalisesUnusedBehaviour(t *testing.T) {
	// Model from a rich log, evaluated against a log using only one path.
	rich := mkLog([][]string{{"a", "b", "d"}, {"a", "c", "d"}})
	model := discover(t, rich, discovery.Options{EdgeFilter: 1})
	narrow := mkLog([][]string{{"a", "b", "d"}})
	r := evaluate(t, narrow, model)
	if r.Fitness != 1 {
		t.Fatalf("narrow log should fit, got %f", r.Fitness)
	}
	full := evaluate(t, rich, model)
	if r.Precision >= full.Precision {
		t.Fatalf("narrow log precision %f should be below full log %f", r.Precision, full.Precision)
	}
}

// The abstraction invariant the package exists for: a GECCO-abstracted log
// fits the model discovered from itself perfectly, and abstraction does not
// produce behaviour that a model of the abstracted log would reject.
func TestAbstractedLogSelfConformance(t *testing.T) {
	log := procgen.RunningExample(200, 9)
	// Figure 3 abstraction by relabeling (completion-only equivalent).
	label := map[string]string{
		"rcp": "clrk1", "ckc": "clrk1", "ckt": "clrk1",
		"acc": "acc", "rej": "rej",
		"prio": "clrk2", "inf": "clrk2", "arv": "clrk2",
	}
	abstracted := &eventlog.Log{}
	for _, tr := range log.Traces {
		at := eventlog.Trace{ID: tr.ID}
		prev := ""
		for _, ev := range tr.Events {
			if l := label[ev.Class]; l != prev {
				at.Events = append(at.Events, eventlog.Event{Class: l})
				prev = l
			}
		}
		abstracted.Traces = append(abstracted.Traces, at)
	}
	r := selfEvaluate(t, abstracted)
	if r.Fitness != 1 {
		t.Fatalf("abstracted self-fitness %f", r.Fitness)
	}
	// Abstraction concentrates behaviour: the abstracted log's model is
	// exercised at least as completely as the original's.
	if r.Precision < selfEvaluate(t, log).Precision-1e-9 {
		t.Fatalf("abstraction should not reduce DFG precision: %f vs %f",
			r.Precision, selfEvaluate(t, log).Precision)
	}
}
