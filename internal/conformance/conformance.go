// Package conformance provides directly-follows conformance measures
// between an event log and a discovered model: fitness (how much of the
// log's behaviour the model allows) and precision (how much of the model's
// behaviour the log exhibits). These are the standard lightweight
// DFG-level counterparts of replay fitness/precision and are used to sanity
// -check that an abstracted log still conforms to the model discovered from
// it — behaviour GECCO's distance minimisation is designed to preserve.
//
// Replay runs on the columnar eventlog.Index and is variant-compressed:
// each distinct class sequence is replayed once and its move counts are
// weighted by the variant's trace count, which leaves every measure
// identical to a per-trace replay while touching each variant only once.
package conformance

import (
	"context"
	"fmt"
	"sort"

	"gecco/internal/discovery"
	"gecco/internal/eventlog"
)

// Options tunes Evaluate.
type Options struct {
	// Details additionally reports the observed directly-follows
	// transitions the model disallows (Result.Misfits), most frequent
	// first.
	Details bool
}

// Misfit is an observed directly-follows transition the model does not
// allow, with the number of times the log takes it.
type Misfit struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count int    `json:"count"`
}

// Result bundles the conformance measures.
type Result struct {
	// Fitness is the fraction of the log's directly-follows moves
	// (including start and end moves) that the model allows, weighted by
	// frequency. 1.0 = every observed transition is possible in the model.
	Fitness float64
	// Precision is the fraction of the model's edges (plus allowed start/
	// end classes) that are actually observed in the log. 1.0 = the model
	// allows nothing the log does not do.
	Precision float64
	// Misfits lists the disallowed observed transitions between known
	// classes, sorted by descending count then labels; only computed under
	// Options.Details.
	Misfits []Misfit `json:",omitempty"`
}

// replayTallies accumulates the move counts and observation marks of a
// variant-compressed replay. Model classes are dense ids 0..n-1; edge and
// misfit matrices are n*n flat arrays indexed a*n+b.
type replayTallies struct {
	total, fit    int
	observedEdges []bool
	observedStart []bool
	observedEnd   []bool
	misfitCount   []int // nil unless details are requested
}

// Evaluate computes fitness and precision between the indexed log and the
// model. The model must stem from a log over the same class universe
// (classes are matched by label; unknown classes count as misfits).
// Cancelling ctx returns an error wrapping ctx.Err().
func Evaluate(ctx context.Context, x *eventlog.Index, m *discovery.Model, opts Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("conformance: %w", err)
	}
	labelID := make(map[string]int, len(m.Labels))
	for i, l := range m.Labels {
		labelID[l] = i
	}
	// classOf maps the index's class ids to model ids once, so the replay
	// kernel never touches strings.
	classOf := make([]int, x.NumClasses())
	for c, name := range x.Classes {
		if id, ok := labelID[name]; ok {
			classOf[c] = id
		} else {
			classOf[c] = -1
		}
	}
	n := m.Graph.N
	allowedStart := make([]bool, n)
	allowedEnd := make([]bool, n)
	for _, c := range m.StartClasses {
		allowedStart[c] = true
	}
	for _, c := range m.EndClasses {
		allowedEnd[c] = true
	}

	t := &replayTallies{
		observedEdges: make([]bool, n*n),
		observedStart: make([]bool, n),
		observedEnd:   make([]bool, n),
	}
	if opts.Details {
		t.misfitCount = make([]int, n*n)
	}
	for v := 0; v < x.NumVariants(); v++ {
		replayVariant(t, m, x.VariantSeq(v), x.VariantCount[v], classOf, allowedStart, allowedEnd)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("conformance: %w", err)
	}

	// Precision: allowed behaviour that was observed.
	allowed, used := 0, 0
	for a := 0; a < n; a++ {
		for _, b := range m.Graph.Out(a) {
			allowed++
			if t.observedEdges[a*n+b] {
				used++
			}
		}
	}
	for c := 0; c < n; c++ {
		if allowedStart[c] {
			allowed++
			if t.observedStart[c] {
				used++
			}
		}
		if allowedEnd[c] {
			allowed++
			if t.observedEnd[c] {
				used++
			}
		}
	}

	res := Result{}
	if t.total > 0 {
		res.Fitness = float64(t.fit) / float64(t.total)
	}
	if allowed > 0 {
		res.Precision = float64(used) / float64(allowed)
	}
	if opts.Details {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if cnt := t.misfitCount[a*n+b]; cnt > 0 {
					res.Misfits = append(res.Misfits, Misfit{From: m.Labels[a], To: m.Labels[b], Count: cnt})
				}
			}
		}
		sort.Slice(res.Misfits, func(i, j int) bool {
			a, b := res.Misfits[i], res.Misfits[j]
			if a.Count != b.Count {
				return a.Count > b.Count
			}
			if a.From != b.From {
				return a.From < b.From
			}
			return a.To < b.To
		})
	}
	return res, nil
}

// replayVariant replays one class sequence against the model and adds its
// move counts, weighted by the variant's trace count, into the tallies.
//
//gecco:hotpath
func replayVariant(t *replayTallies, m *discovery.Model, seq []uint32, weight int, classOf []int, allowedStart, allowedEnd []bool) {
	if len(seq) == 0 {
		return
	}
	n := m.Graph.N
	prev := -1
	for j, raw := range seq {
		c := classOf[raw]
		switch {
		case j == 0:
			t.total += weight
			if c >= 0 {
				t.observedStart[c] = true
				if allowedStart[c] {
					t.fit += weight
				}
			}
		default:
			t.total += weight
			if c >= 0 && prev >= 0 {
				t.observedEdges[prev*n+c] = true
				// Self-loops are model annotations, not edges.
				if (prev == c && m.SelfLoop[c]) || m.Graph.Has(prev, c) {
					t.fit += weight
				} else if t.misfitCount != nil {
					t.misfitCount[prev*n+c] += weight
				}
			}
		}
		prev = c
	}
	t.total += weight
	if prev >= 0 {
		t.observedEnd[prev] = true
		if allowedEnd[prev] {
			t.fit += weight
		}
	}
}
