// Package abstraction implements Step 3 of GECCO (§V-D): rewriting the
// traces of the original log in terms of the selected grouping's activity
// instances. Two strategies from the paper are supported: retaining only the
// completion event per activity instance, and retaining start + completion
// events, which preserves interleaving at the price of longer traces.
package abstraction

import (
	"fmt"
	"sort"

	"gecco/internal/bitset"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
)

// Strategy selects how activity instances are rendered into the abstracted
// trace.
type Strategy int

const (
	// CompletionOnly keeps one event per activity instance, positioned at
	// the instance's last event (σ^c in the paper).
	CompletionOnly Strategy = iota
	// StartComplete keeps two events per multi-event activity instance,
	// at its first and last events, suffixed "+start"/"+complete"
	// (σ^{s+c} in the paper). Single-event instances stay single.
	StartComplete
)

// Grouping is a named exact cover of the class universe.
type Grouping struct {
	Groups []bitset.Set
	Names  []string // parallel to Groups; the high-level activity labels
}

// AutoNames derives activity labels for groups: singletons keep their class
// name; larger groups get the given prefix plus a running number, with the
// member classes appended in brackets for traceability.
func AutoNames(x *eventlog.Index, groups []bitset.Set, prefix string) []string {
	names := make([]string, len(groups))
	n := 1
	for i, g := range groups {
		if g.Len() == 1 {
			names[i] = x.Classes[g.Min()]
			continue
		}
		names[i] = fmt.Sprintf("%s%d", prefix, n)
		n++
	}
	return names
}

// Apply abstracts the log under the grouping. Every event class must be
// covered by exactly one group; Apply returns an error otherwise. The
// abstracted log is built through an eventlog.Builder, so it comes out in
// the columnar form the serving layer holds and serialises; callers that
// want a *Log call ReconstructLog on it.
func Apply(x *eventlog.Index, grouping Grouping, strategy Strategy, policy instances.Policy) (*eventlog.Index, error) {
	if len(grouping.Groups) != len(grouping.Names) {
		return nil, fmt.Errorf("abstraction: %d groups but %d names", len(grouping.Groups), len(grouping.Names))
	}
	classGroup := make([]int, x.NumClasses())
	for c := range classGroup {
		classGroup[c] = -1
	}
	for gi, g := range grouping.Groups {
		var err error
		g.ForEach(func(c int) bool {
			if c >= len(classGroup) {
				err = fmt.Errorf("abstraction: class id %d outside universe", c)
				return false
			}
			if classGroup[c] != -1 {
				err = fmt.Errorf("abstraction: class %q covered by two groups", x.Classes[c])
				return false
			}
			classGroup[c] = gi
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	for c, gi := range classGroup {
		if gi == -1 {
			return nil, fmt.Errorf("abstraction: class %q not covered by any group", x.Classes[c])
		}
	}

	b := eventlog.NewBuilder()
	b.SetName(x.Name + " (abstracted)")
	timeCol := x.Column(eventlog.AttrTimestamp)
	for t := 0; t < x.NumTraces(); t++ {
		base := x.TraceStart(t)
		// Collect all activity instances of all groups in this trace
		// (I_σ = union over groups of inst(σ, g)).
		type marker struct {
			pos   int // position in original trace controlling ordering
			group int
			kind  string // "", "+start", "+complete"
			src   int    // source event position for attribute carry-over
		}
		var markers []marker
		for gi, g := range grouping.Groups {
			for _, inst := range instances.OfTrace(x, t, g, policy) {
				first, last := inst.Span()
				switch {
				case strategy == CompletionOnly || first == last:
					markers = append(markers, marker{pos: last, group: gi, src: last})
				default:
					markers = append(markers, marker{pos: first, group: gi, kind: "+start", src: first})
					markers = append(markers, marker{pos: last, group: gi, kind: "+complete", src: last})
				}
			}
		}
		sort.Slice(markers, func(i, j int) bool { return markers[i].pos < markers[j].pos })
		b.StartTrace(x.TraceID(t))
		for _, m := range markers {
			b.AddEvent(grouping.Names[m.group] + m.kind)
			if timeCol != nil {
				if ts, ok := timeCol.Time(base + m.src); ok {
					b.SetEventAttr(eventlog.AttrTimestamp, eventlog.Time(ts))
				}
			}
			// XES-standard lifecycle annotation alongside the suffix, so
			// exported logs interoperate with lifecycle-aware tooling.
			switch m.kind {
			case "+start":
				b.SetEventAttr(eventlog.AttrLifecycle, eventlog.String("start"))
			case "+complete":
				b.SetEventAttr(eventlog.AttrLifecycle, eventlog.String("complete"))
			}
		}
	}
	return b.Build(), nil
}
