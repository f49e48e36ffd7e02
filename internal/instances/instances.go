// Package instances implements the inst(σ, g) function of §IV-A: the
// decomposition of a trace's projection onto a group of event classes into
// group instances. Following the paper, recurring behaviour is detected and
// the projected sequence is split accordingly (instantiated here as
// split-on-repeat, after van der Aa et al. [9]): a new instance starts when
// an event's class is already present in the instance under construction.
package instances

import (
	"gecco/internal/bitset"
	"gecco/internal/eventlog"
)

// Policy selects how a trace projection is segmented into instances.
type Policy int

const (
	// SplitOnRepeat starts a new instance whenever a class repeats within
	// the current instance (the paper's default, handling loops like σ4).
	SplitOnRepeat Policy = iota
	// WholeTrace treats the entire projection as a single instance.
	WholeTrace
)

// Instance is one occurrence of a group within a trace.
type Instance struct {
	Trace     int   // trace index in the log
	Positions []int // event positions within the trace, ascending
}

// Len returns the number of events in the instance.
func (i *Instance) Len() int { return len(i.Positions) }

// Span returns the first and last event position of the instance.
func (i *Instance) Span() (first, last int) {
	return i.Positions[0], i.Positions[len(i.Positions)-1]
}

// Segments decomposes a class-id sequence (a view into the Index's arena)
// into group instances, returning the position lists. This is the
// sequence-level core of inst(σ, g), shared by the per-trace view below and
// by variant-compacted computations such as the distance measure.
func Segments(seq []uint32, nClasses int, g bitset.Set, p Policy) [][]int {
	var out [][]int
	var cur []int
	// seen tracks the classes of the instance under construction; it is
	// reset by removing its (few) members rather than reallocating, since
	// segmentation sits on the hot path of constraint checking.
	seen := bitset.New(nClasses)
	var seenList []int
	flush := func() {
		if len(cur) > 0 {
			out = append(out, cur)
			cur = nil
		}
		for _, c := range seenList {
			seen.Remove(c)
		}
		seenList = seenList[:0]
	}
	for pos, cid := range seq {
		c := int(cid)
		if !g.Contains(c) {
			continue
		}
		if p == SplitOnRepeat {
			if seen.Contains(c) {
				flush()
			}
			if !seen.Contains(c) {
				seen.Add(c)
				seenList = append(seenList, c)
			}
		}
		cur = append(cur, pos)
	}
	flush()
	return out
}

// OfTrace returns the instances of group g in trace t of the indexed log.
// It returns nil when no event of the trace belongs to g.
func OfTrace(x *eventlog.Index, t int, g bitset.Set, p Policy) []Instance {
	segs := Segments(x.Seq(t), x.NumClasses(), g, p)
	out := make([]Instance, len(segs))
	for i, s := range segs {
		out[i] = Instance{Trace: t, Positions: s}
	}
	return out
}

// OfLog returns all instances of g across the log, visiting only traces that
// contain at least one class of g.
func OfLog(x *eventlog.Index, g bitset.Set, p Policy) []Instance {
	var out []Instance
	x.AnyTraces(g).ForEach(func(t int) bool {
		out = append(out, OfTrace(x, t, g, p)...)
		return true
	})
	return out
}

// Interrupts counts the events from other instances interspersed between the
// first and last event of the instance (the interrupts(ξ) of Eq. 1).
func Interrupts(inst *Instance) int {
	first, last := inst.Span()
	return (last - first + 1) - len(inst.Positions)
}

// Missing counts how many event classes of g do not occur in the instance
// (the missing(ξ, g) of Eq. 1).
func Missing(x *eventlog.Index, inst *Instance, g bitset.Set) int {
	present := bitset.New(x.NumClasses())
	seq := x.Seq(inst.Trace)
	for _, pos := range inst.Positions {
		present.Add(int(seq[pos]))
	}
	return g.Len() - present.Len()
}

// ClassCountsInto tallies the instance's per-class event counts into the
// caller-provided counts slice (len >= NumClasses, zeroed on entry for every
// class the instance can touch) and appends each first-seen class id to
// touched, returning the extended touched list. Callers reuse one counts
// slice across instances by re-zeroing only the touched entries — this is
// the allocation-free replacement for the former map-returning ClassCounts
// on the per-class cardinality hot path.
//
//gecco:hotpath
func ClassCountsInto(x *eventlog.Index, inst *Instance, counts []int, touched []int) []int {
	seq := x.Seq(inst.Trace)
	for _, pos := range inst.Positions {
		c := int(seq[pos])
		if counts[c] == 0 {
			touched = append(touched, c)
		}
		counts[c]++
	}
	return touched
}
