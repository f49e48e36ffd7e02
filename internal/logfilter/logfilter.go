// Package logfilter provides the standard event-log preprocessing
// operations applied before abstraction and discovery: variant-frequency
// filtering (the trace-level analogue of the paper's 80/20 DFG views),
// class projection, and deterministic sampling. All functions consume and
// produce columnar eventlog.Index views — inputs are never mutated, and
// outputs are rebuilt through the sanctioned eventlog.Builder path so that
// downstream stages (sessions, discovery, conformance) operate on a
// first-class index, not a materialised pointer log. Cancelling ctx aborts
// a copy mid-trace and returns an error wrapping ctx.Err().
package logfilter

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"gecco/internal/eventlog"
)

// TopVariants keeps the traces belonging to the most frequent variants
// whose cumulative share of traces reaches fraction (e.g. 0.8 keeps the
// variants covering 80 % of traces). Ties are broken by variant string for
// determinism. fraction >= 1 returns a copy of the whole log.
func TopVariants(ctx context.Context, x *eventlog.Index, fraction float64) (*eventlog.Index, error) {
	type vc struct {
		variant string
		count   int
	}
	// Variants are keyed by their class-name string (exactly the legacy
	// Trace.Variant() text), so index variants that render identically
	// merge before ranking.
	counts := make(map[string]int, x.NumVariants())
	for v := 0; v < x.NumVariants(); v++ {
		counts[variantString(x, v)] += x.VariantCount[v]
	}
	ranked := make([]vc, 0, len(counts))
	for v, c := range counts {
		ranked = append(ranked, vc{v, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].variant < ranked[j].variant
	})
	keep := make(map[string]bool, len(ranked))
	cum := 0
	for _, r := range ranked {
		if float64(cum) >= fraction*float64(x.NumTraces()) {
			break
		}
		keep[r.variant] = true
		cum += r.count
	}
	return selectTraces(ctx, x, func(t int) bool {
		return keep[variantString(x, x.TraceVariant[t])]
	})
}

// MinVariantCount keeps traces whose variant occurs at least n times.
func MinVariantCount(ctx context.Context, x *eventlog.Index, n int) (*eventlog.Index, error) {
	counts := make(map[string]int, x.NumVariants())
	for v := 0; v < x.NumVariants(); v++ {
		counts[variantString(x, v)] += x.VariantCount[v]
	}
	return selectTraces(ctx, x, func(t int) bool {
		return counts[variantString(x, x.TraceVariant[t])] >= n
	})
}

// ProjectClasses keeps only the events whose class is in the given set;
// traces that become empty are dropped.
func ProjectClasses(ctx context.Context, x *eventlog.Index, classes []string) (*eventlog.Index, error) {
	keep := make([]bool, x.NumClasses())
	for _, name := range classes {
		if c, ok := x.ClassID[name]; ok {
			keep[c] = true
		}
	}
	return copyLog(ctx, x, func(t int) bool { return true }, keep)
}

// DropClasses removes events of the given classes (the complement of
// ProjectClasses); traces that become empty are dropped.
func DropClasses(ctx context.Context, x *eventlog.Index, classes []string) (*eventlog.Index, error) {
	keep := make([]bool, x.NumClasses())
	for i := range keep {
		keep[i] = true
	}
	for _, name := range classes {
		if c, ok := x.ClassID[name]; ok {
			keep[c] = false
		}
	}
	return copyLog(ctx, x, func(t int) bool { return true }, keep)
}

// Sample keeps each trace with probability p, deterministically per seed.
// The relative trace order is preserved.
func Sample(ctx context.Context, x *eventlog.Index, p float64, seed int64) (*eventlog.Index, error) {
	rng := rand.New(rand.NewSource(seed))
	// The RNG is consumed once per trace in order, exactly like the legacy
	// implementation, so a given (log, p, seed) keeps the same traces.
	kept := make([]bool, x.NumTraces())
	for t := range kept {
		kept[t] = rng.Float64() < p
	}
	return selectTraces(ctx, x, func(t int) bool { return kept[t] })
}

// Head keeps the first n traces.
func Head(ctx context.Context, x *eventlog.Index, n int) (*eventlog.Index, error) {
	return selectTraces(ctx, x, func(t int) bool { return t < n })
}

// variantString renders variant v as its comma-joined class-name sequence
// (the legacy Trace.Variant() text).
func variantString(x *eventlog.Index, v int) string {
	seq := x.VariantSeq(v)
	names := make([]string, len(seq))
	for i, c := range seq {
		names[i] = x.Classes[c]
	}
	return strings.Join(names, ",")
}

// selectTraces rebuilds the index keeping the traces selected by keep, in
// original order, with all classes.
func selectTraces(ctx context.Context, x *eventlog.Index, keep func(t int) bool) (*eventlog.Index, error) {
	return copyLog(ctx, x, keep, nil)
}

// copyLog is the shared filter kernel: it streams the selected traces (and,
// when keepClass is non-nil, only events of the kept classes — traces that
// become empty are dropped) through an eventlog.Builder, carrying over log,
// trace and event attributes. Event attributes are copied per column in the
// source column order, so repeated filtering is deterministic.
func copyLog(ctx context.Context, x *eventlog.Index, keep func(t int) bool, keepClass []bool) (*eventlog.Index, error) {
	b := eventlog.NewBuilder()
	b.SetName(x.Name)
	copyAttrs(x.LogAttrs(), b.SetLogAttr)
	cols := x.Columns()
	for t := 0; t < x.NumTraces(); t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("logfilter: %w", err)
		}
		if !keep(t) {
			continue
		}
		seq := x.Seq(t)
		if keepClass != nil && !anyKept(seq, keepClass) {
			continue
		}
		b.StartTrace(x.TraceID(t))
		copyAttrs(x.TraceAttrs(t), b.SetTraceAttr)
		start := x.TraceStart(t)
		for j, c := range seq {
			if keepClass != nil && !keepClass[c] {
				continue
			}
			b.AddEvent(x.Classes[c])
			for _, col := range cols {
				if v, ok := col.Value(start + j); ok {
					b.SetEventAttr(col.Name(), v)
				}
			}
		}
	}
	return b.Build(), nil
}

// anyKept reports whether the sequence contains at least one kept class.
//
//gecco:hotpath
func anyKept(seq []uint32, keepClass []bool) bool {
	for _, c := range seq {
		if keepClass[c] {
			return true
		}
	}
	return false
}

// copyAttrs feeds the attribute map into a builder setter in sorted name
// order, so rebuilt indexes are deterministic.
func copyAttrs(attrs map[string]eventlog.Value, set func(string, eventlog.Value)) {
	if len(attrs) == 0 {
		return
	}
	names := make([]string, 0, len(attrs))
	for k := range attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		set(k, attrs[k])
	}
}
