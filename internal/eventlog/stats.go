package eventlog

import (
	"time"

	"gecco/internal/bitset"
)

// This file holds the per-class aggregate statistics behind the constraint
// evaluator's screening kernels: frozen-index summaries that let a candidate
// group's instance-constraint check collapse to an O(classes-in-group) merge
// of cached partials instead of an O(events) rescan. Everything here is a
// pure function of the immutable Index, so caches built from these values
// (constraints.AttrCache) never need invalidation.

// ClassEventMasks returns, per class id, the set of global event positions
// holding an event of that class — the class-membership masks that combine
// with column presence masks via the word-parallel bitset kernels (AndCount,
// ForEachAnd). The masks total NumClasses * NumEvents bits; callers memoise
// them (one build per session).
func (x *Index) ClassEventMasks() []bitset.Set {
	out := make([]bitset.Set, x.NumClasses())
	for c := range out {
		out[c] = bitset.New(len(x.arena))
	}
	for pos, c := range x.arena {
		out[c].Add(pos)
	}
	return out
}

// ClassTraceCounts returns the number of events of class c in trace t,
// flattened as counts[c*NumTraces+t]. It is attribute-independent — the
// event-count partials behind Count/EventsPerClass/ClassCardinality screens.
func (x *Index) ClassTraceCounts() []int32 {
	nt := x.NumTraces()
	counts := make([]int32, x.NumClasses()*nt)
	for t := 0; t < nt; t++ {
		base := t
		for _, c := range x.Seq(t) {
			counts[int(c)*nt+base]++
		}
	}
	return counts
}

// ClassColStats holds per-class partial aggregates of one attribute column:
// presence and numeric-value counts, numeric min/max, distinct dictionary
// codes (strings-only columns), and per-(class, trace) numeric count/sum
// partials. A group check merges the entries of its classes; the Index is
// frozen, so the stats never go stale.
type ClassColStats struct {
	Attr      string
	HasColumn bool // false when no event carries the attribute

	// Per class id:
	Present   []int     // events carrying the attribute (any kind)
	NumCount  []int     // events carrying a numeric (float/int) value
	TimeCount []int     // events carrying a time value
	Min, Max  []float64 // over numeric values; meaningful only when NumCount > 0

	// Codes[c] is the set of distinct dictionary codes of class c's values;
	// nil unless the column is strings-only (where codes biject onto keys).
	Codes       []bitset.Set
	StringsOnly bool

	// Per-(class, trace) numeric partials, flattened class*NumTraces+t; nil
	// when the column holds no numeric values. TraceNumSum[c*nt+t] is the sum
	// of class c's numeric values in trace t.
	TraceNumCount []int32
	TraceNumSum   []float64
}

// BuildClassColStats computes the per-class aggregates of one attribute
// column using the class event masks: per class, the presence count is a
// word-parallel AndCount of class mask and presence mask, and the value scan
// iterates only the surviving bits via ForEachAnd.
func (x *Index) BuildClassColStats(attr string, masks []bitset.Set) *ClassColStats {
	nc := x.NumClasses()
	nt := x.NumTraces()
	st := &ClassColStats{
		Attr:      attr,
		Present:   make([]int, nc),
		NumCount:  make([]int, nc),
		TimeCount: make([]int, nc),
		Min:       make([]float64, nc),
		Max:       make([]float64, nc),
	}
	col := x.Column(attr)
	if col == nil {
		return st
	}
	st.HasColumn = true
	st.StringsOnly = col.StringsOnly()
	if st.StringsOnly {
		st.Codes = make([]bitset.Set, nc)
	}
	// Numeric trace partials are sized lazily: columns without a single
	// numeric value (pure string/time columns) never pay for them.
	ensureTracePartials := func() {
		if st.TraceNumCount == nil {
			st.TraceNumCount = make([]int32, nc*nt)
			st.TraceNumSum = make([]float64, nc*nt)
		}
	}
	for c := 0; c < nc; c++ {
		st.Present[c] = masks[c].AndCount(col.present)
		if st.Present[c] == 0 {
			continue
		}
		if st.StringsOnly {
			st.Codes[c] = bitset.New(col.NumCodes())
		}
		// Positions ascend, so the trace cursor advances monotonically.
		tr := 0
		masks[c].ForEachAnd(col.present, func(pos int) bool {
			switch col.kindAt(pos) {
			case KindFloat, KindInt:
				v := col.nums[pos]
				if st.NumCount[c] == 0 {
					st.Min[c], st.Max[c] = v, v
				} else {
					if v < st.Min[c] {
						st.Min[c] = v
					}
					if v > st.Max[c] {
						st.Max[c] = v
					}
				}
				st.NumCount[c]++
				for pos >= x.traceOff[tr+1] {
					tr++
				}
				ensureTracePartials()
				st.TraceNumCount[c*nt+tr]++
				st.TraceNumSum[c*nt+tr] += v
			case KindTime:
				st.TimeCount[c]++
			case KindString:
				if st.StringsOnly {
					st.Codes[c].Add(int(col.codes[pos]))
				}
			}
			return true
		})
	}
	return st
}

// SpanStats bounds instance wall-clock spans and gaps: TraceSpan[t] is the
// spread (max minus min, in seconds) of trace t's present timestamps, and
// ClassMaxSpan[c] the largest such spread over the traces containing class
// c. Any instance touching class c lives inside one trace of ClassTraces[c],
// and both its span and every inter-event gap are bounded by that trace's
// timestamp spread — even with non-monotonic timestamps, since first and
// last lie within [min, max].
type SpanStats struct {
	HasTimestamps bool
	TraceSpan     []float64
	ClassMaxSpan  []float64
}

// BuildSpanStats computes per-trace timestamp spreads and their per-class
// maxima from the timestamp column.
func (x *Index) BuildSpanStats() *SpanStats {
	nt := x.NumTraces()
	st := &SpanStats{
		TraceSpan:    make([]float64, nt),
		ClassMaxSpan: make([]float64, x.NumClasses()),
	}
	col := x.Column(AttrTimestamp)
	if col == nil {
		return st
	}
	st.HasTimestamps = true
	for t := 0; t < nt; t++ {
		base, n := x.traceOff[t], x.TraceLen(t)
		haveAny := false
		var tMn, tMx time.Time
		for j := 0; j < n; j++ {
			tv, ok := col.Time(base + j)
			if !ok {
				continue
			}
			if !haveAny {
				tMn, tMx, haveAny = tv, tv, true
				continue
			}
			if tv.Before(tMn) {
				tMn = tv
			}
			if tv.After(tMx) {
				tMx = tv
			}
		}
		if haveAny {
			// Computed through the same Sub(...).Seconds() arithmetic the
			// evaluator's span/gap checks use, so the bound dominates every
			// in-trace timestamp difference exactly — no epoch-float rounding.
			st.TraceSpan[t] = tMx.Sub(tMn).Seconds()
		}
	}
	for c := range st.ClassMaxSpan {
		maxSpan := 0.0
		x.ClassTraces[c].ForEach(func(t int) bool {
			if st.TraceSpan[t] > maxSpan {
				maxSpan = st.TraceSpan[t]
			}
			return true
		})
		st.ClassMaxSpan[c] = maxSpan
	}
	return st
}
