// Package stream implements the third future-work direction of §VIII:
// lifting GECCO to online settings, where traces arrive one at a time and
// the grouping is dynamically adapted to new arrivals.
//
// The Abstractor maintains a sliding window of the most recent traces in a
// ring buffer, together with a reference-counted multiset of the window's
// directly-follows edges that is updated as traces enter and leave. The
// drift signal — the Jaccard distance between the window's current edge set
// and the edge set the grouping was computed on — is maintained from those
// edge deltas, so each arrival costs O(|trace|): ring-buffer insertion,
// edge refcount updates, an O(1) drift check, and the O(|trace|) rewrite of
// the arriving trace under the current grouping. The expensive grouping
// recomputation (a full GECCO run on the window) runs only when the drift
// signal fires or after RefreshEvery arrivals, i.e. amortised-rarely, which
// is what makes the approach online.
package stream

import (
	"context"
	"fmt"
	"sort"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
)

// PipelineFunc runs one full GECCO pipeline over the current window. The
// Abstractor calls it on every regrouping; the default implementation
// builds a fresh core.Session per window. A serving layer can substitute a
// function that shares sessions and results across streams (identical
// windows — replayed streams, identical parallel streams — then skip the
// pipeline entirely).
type PipelineFunc func(ctx context.Context, window *eventlog.Log, set *constraints.Set, cfg core.Config) (*core.Result, error)

// Config tunes the online abstractor.
type Config struct {
	// WindowSize is the number of recent traces kept (default 200).
	WindowSize int
	// RefreshEvery forces a regrouping after this many arrivals even
	// without drift (default 100).
	RefreshEvery int
	// DriftThreshold is the Jaccard distance between the current DFG edge
	// set and the grouping-time edge set above which a regrouping fires.
	// Zero (the zero value) means maximally sensitive — any divergence
	// fires; a negative value disables drift detection entirely, leaving
	// only the RefreshEvery cadence. DefaultDriftThreshold is a reasonable
	// explicit choice.
	DriftThreshold float64
	// Pipeline is the configuration for the underlying GECCO runs; its
	// zero value uses DFG-based candidates, which suits repeated online
	// recomputation.
	Pipeline core.Config
	// RunPipeline overrides how regroupings execute the pipeline (nil uses
	// a fresh core.Session per window). See PipelineFunc.
	RunPipeline PipelineFunc
}

// DefaultDriftThreshold is the drift sensitivity used by the serving layer
// when a stream does not declare one. It is not applied by New: a zero
// Config.DriftThreshold deliberately means "fire on any drift".
const DefaultDriftThreshold = 0.25

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 200
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 100
	}
	return c
}

// edge is one directly-follows pair of event classes.
type edge = [2]string

// regroupReason records why a regrouping fired, so drift accounting cannot
// be polluted by refreshes or by retries after an infeasible solve.
type regroupReason int

const (
	regroupNone regroupReason = iota
	regroupInitial
	regroupRefresh
	regroupDrift
)

// Abstractor consumes traces and emits their abstracted counterparts under
// a grouping that adapts to the stream. It is not safe for concurrent use;
// callers pushing from multiple goroutines must serialise externally (the
// serving layer holds one mutex per named stream).
type Abstractor struct {
	cfg Config
	set *constraints.Set

	// ring is the sliding window: a fixed-capacity ring buffer. While the
	// window is filling, slots 0..count-1 hold the traces in arrival order;
	// once full, head is the oldest slot and is overwritten on arrival.
	ring  []eventlog.Trace
	head  int
	count int

	// edges is the reference-counted directly-follows edge multiset of the
	// window: the count is the number of adjacent occurrences across all
	// windowed traces, and an edge leaves the map when its count hits zero.
	edges map[edge]int

	// basis is the window's distinct edge set at the last regrouping.
	// inter and curOnly maintain the Jaccard comparison incrementally:
	// inter = |current ∩ basis|, curOnly = |current \ basis|, so the union
	// is len(basis) + curOnly and no per-arrival scan is needed.
	basis   map[edge]struct{}
	inter   int
	curOnly int

	groupingOK   bool
	names        []string       // activity name per group
	classToGroup map[string]int // event class -> index into names
	sinceRefresh int

	// Regroupings counts how often the grouping was recomputed.
	Regroupings int
	// Drifts counts regroupings triggered by the drift signal (refreshes
	// and post-infeasibility retries are not drifts).
	Drifts int
}

// New creates an online abstractor for the constraint set.
func New(set *constraints.Set, cfg Config) *Abstractor {
	cfg = cfg.withDefaults()
	if cfg.Pipeline.Mode == core.Exhaustive {
		cfg.Pipeline.Mode = core.DFGUnbounded
	}
	// The regrouping consumes only the grouping; the window's own
	// abstracted log would be discarded, so skip Step 3 entirely.
	cfg.Pipeline.GroupingOnly = true
	return &Abstractor{
		cfg:   cfg,
		set:   set,
		ring:  make([]eventlog.Trace, cfg.WindowSize),
		edges: make(map[edge]int),
	}
}

// WindowLen returns the number of traces currently in the window.
func (a *Abstractor) WindowLen() int { return a.count }

// Config returns the abstractor's effective configuration (defaults
// applied); it is immutable after New.
func (a *Abstractor) Config() Config { return a.cfg }

// DriftScore returns the current Jaccard distance between the window's edge
// set and the grouping-time edge set (0 before the first regrouping).
func (a *Abstractor) DriftScore() float64 {
	if a.basis == nil {
		return 0
	}
	union := len(a.basis) + a.curOnly
	if union == 0 {
		return 0
	}
	return 1 - float64(a.inter)/float64(union)
}

// Grouping returns the current grouping's class lists in group order, each
// list sorted, or nil before the first successful regrouping.
func (a *Abstractor) Grouping() [][]string {
	if !a.groupingOK {
		return nil
	}
	out := make([][]string, len(a.names))
	for c, g := range a.classToGroup {
		out[g] = append(out[g], c)
	}
	for _, classes := range out {
		sort.Strings(classes)
	}
	return out
}

// ActivityNames returns the current grouping's activity names in group
// order (aligned with Grouping), or nil before the first successful
// regrouping.
func (a *Abstractor) ActivityNames() []string {
	if !a.groupingOK {
		return nil
	}
	return append([]string(nil), a.names...)
}

// Push consumes one trace and returns its abstraction under the current
// grouping; it is PushContext under context.Background().
func (a *Abstractor) Push(tr eventlog.Trace) (eventlog.Trace, error) {
	//lint:gecco-allow(ctxflow): convenience wrapper; PushContext is the cancellable variant
	return a.PushContext(context.Background(), tr)
}

// PushContext consumes one trace and returns its abstraction under the
// current grouping. The first call (and every regrouping) runs the full
// pipeline on the window under ctx; all other arrivals cost O(|trace|).
func (a *Abstractor) PushContext(ctx context.Context, tr eventlog.Trace) (eventlog.Trace, error) {
	if a.count == len(a.ring) {
		a.removeEdges(a.ring[a.head])
		a.ring[a.head] = tr
		a.head++
		if a.head == len(a.ring) {
			a.head = 0
		}
	} else {
		a.ring[a.count] = tr
		a.count++
	}
	a.addEdges(tr)
	a.sinceRefresh++

	reason := regroupNone
	switch {
	case a.basis == nil:
		reason = regroupInitial
	case a.sinceRefresh >= a.cfg.RefreshEvery:
		reason = regroupRefresh
	case a.drifted():
		reason = regroupDrift
	}
	// An infeasible grouping does not retrigger the pipeline per arrival:
	// the abstractor backs off and passes traces through until the next
	// refresh or drift signal, when the window has genuinely changed.
	if reason != regroupNone {
		if err := a.regroup(ctx, reason); err != nil {
			return eventlog.Trace{}, err
		}
	}
	if !a.groupingOK {
		// No feasible grouping yet: pass the trace through unchanged, as
		// GECCO returns the original log in the offline setting.
		return tr, nil
	}
	return a.abstractOne(tr), nil
}

// addEdges adds the trace's directly-follows edges to the window multiset,
// updating the incremental Jaccard terms on 0→1 count transitions.
func (a *Abstractor) addEdges(tr eventlog.Trace) {
	ev := tr.Events
	for j := 1; j < len(ev); j++ {
		e := edge{ev[j-1].Class, ev[j].Class}
		n := a.edges[e]
		a.edges[e] = n + 1
		if n == 0 {
			if _, ok := a.basis[e]; ok {
				a.inter++
			} else {
				a.curOnly++
			}
		}
	}
}

// removeEdges removes an evicted trace's edges, updating the incremental
// Jaccard terms on 1→0 count transitions.
func (a *Abstractor) removeEdges(tr eventlog.Trace) {
	ev := tr.Events
	for j := 1; j < len(ev); j++ {
		e := edge{ev[j-1].Class, ev[j].Class}
		if n := a.edges[e]; n > 1 {
			a.edges[e] = n - 1
		} else {
			delete(a.edges, e)
			if _, ok := a.basis[e]; ok {
				a.inter--
			} else {
				a.curOnly--
			}
		}
	}
}

// drifted reports whether the maintained Jaccard distance exceeds the
// threshold; O(1) per check.
func (a *Abstractor) drifted() bool {
	if a.basis == nil || a.cfg.DriftThreshold < 0 {
		return false
	}
	return a.DriftScore() > a.cfg.DriftThreshold
}

// windowLog materialises the ring buffer as a log in arrival order
// (oldest first); O(window), paid only at regroupings.
func (a *Abstractor) windowLog() *eventlog.Log {
	traces := make([]eventlog.Trace, 0, a.count)
	if a.count < len(a.ring) {
		traces = append(traces, a.ring[:a.count]...)
	} else {
		traces = append(traces, a.ring[a.head:]...)
		traces = append(traces, a.ring[:a.head]...)
	}
	return &eventlog.Log{Name: "window", Traces: traces}
}

// runPipeline executes one GECCO run over the window, through the
// configured hook when present.
func (a *Abstractor) runPipeline(ctx context.Context, log *eventlog.Log) (*core.Result, error) {
	if a.cfg.RunPipeline != nil {
		return a.cfg.RunPipeline(ctx, log, a.set, a.cfg.Pipeline)
	}
	sess, err := core.NewSession(log)
	if err != nil {
		return nil, err
	}
	return sess.Solve(ctx, a.set, a.cfg.Pipeline)
}

func (a *Abstractor) regroup(ctx context.Context, reason regroupReason) error {
	res, err := a.runPipeline(ctx, a.windowLog())
	if err != nil {
		return fmt.Errorf("stream: regroup: %w", err)
	}
	a.Regroupings++
	if reason == regroupDrift {
		a.Drifts++
	}
	a.sinceRefresh = 0
	a.rebaseline()
	if !res.Feasible {
		a.groupingOK = false
		return nil
	}
	a.groupingOK = true
	a.names = res.Grouping.Names
	a.classToGroup = make(map[string]int)
	for gi, classes := range res.GroupClasses {
		for _, c := range classes {
			a.classToGroup[c] = gi
		}
	}
	return nil
}

// rebaseline snapshots the window's distinct edge set as the new drift
// basis and resets the incremental Jaccard terms (identical sets: the
// intersection is the whole basis, nothing is current-only).
func (a *Abstractor) rebaseline() {
	basis := make(map[edge]struct{}, len(a.edges))
	for e := range a.edges {
		basis[e] = struct{}{}
	}
	a.basis = basis
	a.inter = len(basis)
	a.curOnly = 0
}

// abstractOne rewrites a single trace with the current grouping using the
// completion-only strategy. Classes unseen at grouping time stay as-is
// (they will be regrouped on the next refresh).
func (a *Abstractor) abstractOne(tr eventlog.Trace) eventlog.Trace {
	out := eventlog.Trace{ID: tr.ID}
	// Instance segmentation: a new activity instance completes when the
	// next event of the same group would repeat a class (split-on-repeat)
	// or at the final event of the group's run.
	type state struct {
		classes map[string]bool
		lastPos int
	}
	open := make(map[int]*state)
	var markers []struct {
		pos   int
		class string
	}
	flush := func(gi int) {
		st := open[gi]
		if st == nil {
			return
		}
		markers = append(markers, struct {
			pos   int
			class string
		}{st.lastPos, a.names[gi]})
		delete(open, gi)
	}
	for pos, ev := range tr.Events {
		gi, ok := a.classToGroup[ev.Class]
		if !ok {
			markers = append(markers, struct {
				pos   int
				class string
			}{pos, ev.Class})
			continue
		}
		st := open[gi]
		if st == nil {
			st = &state{classes: make(map[string]bool)}
			open[gi] = st
		} else if st.classes[ev.Class] {
			flush(gi)
			st = &state{classes: make(map[string]bool)}
			open[gi] = st
		}
		st.classes[ev.Class] = true
		st.lastPos = pos
	}
	for gi := range open {
		flush(gi)
	}
	// Emit in completion order. Marker positions are distinct (each event
	// position completes at most one instance), so the sort is a total
	// order and the output is deterministic despite the map flush above.
	for i := 1; i < len(markers); i++ {
		for j := i; j > 0 && markers[j].pos < markers[j-1].pos; j-- {
			markers[j], markers[j-1] = markers[j-1], markers[j]
		}
	}
	for _, m := range markers {
		ev := eventlog.Event{Class: m.class}
		if ts, ok := tr.Events[m.pos].Timestamp(); ok {
			ev.SetAttr(eventlog.AttrTimestamp, eventlog.Time(ts))
		}
		out.Events = append(out.Events, ev)
	}
	return out
}
