// Package distance implements GECCO's distance measure (§IV-B, Eq. 1 and 2):
// a per-group score combining cohesion (few interruptions by foreign
// events), correlation (few missing classes per instance), and a unary-group
// penalty, averaged over the group's instances. Lower is better.
package distance

import (
	"math"
	"sync"
	"sync/atomic"

	"gecco/internal/bitset"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/par"
)

// Calc computes and memoises group distances over one indexed log. It is
// safe for concurrent use: the memo is sharded with per-shard locks and each
// group is evaluated exactly once, so the evaluation count — and, because
// Eq. 1 itself is deterministic, every memoised value — is identical between
// sequential and parallel runs.
type Calc struct {
	X       *eventlog.Index
	Policy  instances.Policy
	cache   *par.Memo[float64]
	lbCache *par.Memo[float64]
	lbPad   float64
	occOnce sync.Once
	occ     []int32   // per-variant class occurrence counts (see buildOcc)
	scratch sync.Pool // *vtScratch, one per concurrent variantTerm
	evals   atomic.Int64
	pruned  atomic.Int64
}

// vtScratch holds one variant evaluation's segmentation state: the classes
// of the instance under construction, reset member-by-member between
// segments.
type vtScratch struct {
	seen     bitset.Set
	seenList []int
}

// NewCalc builds a distance calculator for the log. Each Eq. 1 evaluation
// runs on its caller's goroutine; callers parallelise across groups.
func NewCalc(x *eventlog.Index, policy instances.Policy) *Calc {
	c := &Calc{
		X:       x,
		Policy:  policy,
		cache:   par.NewMemo[float64](),
		lbCache: par.NewMemo[float64](),
		// Shaving the lower bound by this relative margin keeps it admissible
		// through the float accumulation of Eq. 1's weighted mean (one term
		// per instance, bounded by the event count): the true rounding error
		// is below terms·2⁻⁵², the pad ~100x that.
		lbPad: (float64(x.NumEvents()) + 4) * 1e-14,
	}
	c.scratch.New = func() any {
		return &vtScratch{seen: bitset.New(x.NumClasses())}
	}
	return c
}

// Evals reports the number of non-memoised group evaluations (the runtime
// accounting of §VI).
func (c *Calc) Evals() int { return int(c.evals.Load()) }

// MemoLen reports the number of memoised group distances. Long-lived
// holders (a serving session on a hot log) use it to bound memo growth.
func (c *Calc) MemoLen() int { return c.cache.Len() }

// LBPruned reports how many frontier nodes were pruned by the admissible
// lower bound without an exact Eq. 1 evaluation (see GroupLB).
func (c *Calc) LBPruned() int { return int(c.pruned.Load()) }

// NotePruned records n frontier nodes pruned via GroupLB bounds.
func (c *Calc) NotePruned(n int) { c.pruned.Add(int64(n)) }

// GroupLB returns an admissible lower bound on Group(g): GroupLB(g) <=
// Group(g) always, computed without segmenting a single trace. Dropping
// Eq. 1's non-negative interrupts term leaves the average missing mass:
//
//	dist(g) >= 1 + 1/|g| - S/(N·|g|)
//
// where S is the weighted total of group events across instances and N the
// weighted instance count. S is exact from per-variant class occurrence
// counts (instances partition the projection). N is unknown without
// segmenting, but under split-on-repeat each instance contains a class at
// most once, so variant v hosts at least K_v = max occurrences of any
// g-class instances; the bound is increasing in N, so substituting
// N_min = Σ w_v·K_v <= N keeps it admissible. Under whole-trace N is exact
// (one instance per trace) and the missing term uses the distinct
// co-occurrence count |classes(v) ∩ g| directly.
//
// Two weaker bounds are deliberately NOT used. The singleton-sum bound
// (Σ dist({c})) is inadmissible: dist({c}) = 1 for every occurring
// singleton, while a perfectly correlated pair already scores 0.5. And the
// min-over-variants bound ((minMissing+1)/|g|) — admissible — is useless
// inside Algorithm 2: the beam retains only groups whose classes co-occur
// in some trace (line 29's Occurs filter), so minMissing is 0 for every
// frontier path and the bound degenerates to the uniform 1/|g|. The
// average-based bound above separates occurring groups by how much of the
// log hosts them only partially.
//
// Groups intersecting no variant score +Inf, matching Group. Bounds are
// memoised, and a group whose exact distance is already cached returns that
// instead (the exact value is its own tightest admissible bound).
//
//gecco:hotpath
func (c *Calc) GroupLB(g bitset.Set) float64 {
	key := g.Key()
	if v, ok := c.cache.Get(key); ok {
		return v
	}
	return c.lbCache.Do(key, func() float64 {
		size := float64(g.Len())
		var events, insts int64
		if c.Policy == instances.WholeTrace {
			for v := 0; v < c.X.NumVariants(); v++ {
				a := g.AndCount(c.X.VariantClasses[v])
				if a == 0 {
					continue
				}
				w := int64(c.X.VariantCount[v])
				events += w * int64(a)
				insts += w
			}
		} else {
			c.buildOcc()
			nc := c.X.NumClasses()
			elems := g.Elems()
			for v := 0; v < c.X.NumVariants(); v++ {
				row := c.occ[v*nc : (v+1)*nc]
				var n, k int32
				for _, cl := range elems {
					o := row[cl]
					n += o
					if o > k {
						k = o
					}
				}
				if k == 0 {
					continue
				}
				w := int64(c.X.VariantCount[v])
				events += w * int64(n)
				insts += w * int64(k)
			}
		}
		if insts == 0 {
			return math.Inf(1) // no variant hosts g: Group(g) is +Inf too
		}
		lb := 1 + 1/size - float64(events)/(float64(insts)*size)
		// Shave by lbPad so the bound stays below the float-rounded weighted
		// mean of per-instance terms even when every term equals the bound.
		return lb * (1 - c.lbPad)
	})
}

// buildOcc lazily materialises the per-variant class occurrence matrix
// (variants × classes, row-major) backing the split-on-repeat lower bound.
// One pass over the variant sequences; a few MB on the richest logs.
func (c *Calc) buildOcc() {
	c.occOnce.Do(func() {
		nc := c.X.NumClasses()
		nv := c.X.NumVariants()
		occ := make([]int32, nv*nc)
		for v := 0; v < nv; v++ {
			row := occ[v*nc : (v+1)*nc]
			for _, cid := range c.X.VariantSeq(v) {
				row[cid]++
			}
		}
		c.occ = occ
	})
}

// Group computes dist(g, L) per Eq. 1. Groups with no instances in the log
// (which only arise for never-occurring class combinations) score +Inf.
//
//gecco:hotpath
func (c *Calc) Group(g bitset.Set) float64 {
	return c.cache.Do(g.Key(), func() float64 {
		c.evals.Add(1)
		return c.compute(g)
	})
}

// compute evaluates Eq. 1 over the log's distinct variants, weighting each
// by its trace multiplicity: the measure depends only on class sequences,
// so identical traces need not be re-segmented.
//
//gecco:hotpath
func (c *Calc) compute(g bitset.Set) float64 {
	nv := c.X.NumVariants()
	sum := 0.0
	numInsts := 0
	for v := 0; v < nv; v++ {
		s, n := c.variantTerm(g, v)
		sum += s
		numInsts += n
	}
	if numInsts == 0 {
		return math.Inf(1)
	}
	return sum / float64(numInsts)
}

// variantTerm evaluates the Eq. 1 summand of one variant: the weighted sum
// over the variant's group instances and the number of instances
// contributed (times the variant's trace multiplicity). Segmentation is
// streamed — first/last/count per instance tracked inline, no position
// slices materialised — with a pooled class-scratch bitset reset
// member-by-member. Under split-on-repeat every class occurs at most once
// per instance, so the distinct-class count equals the event count; under
// whole-trace the single instance's distinct count is the word-parallel
// |classes(v) ∩ g|. Terms accumulate in segment order with the exact
// arithmetic of the materialised implementation, so results stay
// bit-identical.
//
//gecco:hotpath
func (c *Calc) variantTerm(g bitset.Set, v int) (sum float64, numInsts int) {
	vc := c.X.VariantClasses[v]
	if !vc.Intersects(g) {
		return 0, 0
	}
	seq := c.X.VariantSeq(v)
	gl := g.Len()
	size := float64(gl)
	wcount := c.X.VariantCount[v]
	weight := float64(wcount)

	if c.Policy == instances.WholeTrace {
		// One instance: the whole projection.
		first, last, count := 0, 0, 0
		for pos, cid := range seq {
			if g.Contains(int(cid)) {
				if count == 0 {
					first = pos
				}
				last = pos
				count++
			}
		}
		interrupts := (last - first + 1) - count
		missing := gl - g.AndCount(vc)
		sum = weight * (float64(interrupts)/float64(count) + float64(missing)/size + 1/size)
		return sum, wcount
	}

	s := c.scratch.Get().(*vtScratch)
	first, last, count := 0, 0, 0
	for pos, cid := range seq {
		cl := int(cid)
		if !g.Contains(cl) {
			continue
		}
		if s.seen.Contains(cl) {
			// Class repeats: close the instance under construction.
			interrupts := (last - first + 1) - count
			missing := gl - count
			sum += weight * (float64(interrupts)/float64(count) + float64(missing)/size + 1/size)
			numInsts += wcount
			count = 0
			for _, sc := range s.seenList {
				s.seen.Remove(sc)
			}
			s.seenList = s.seenList[:0]
		}
		s.seen.Add(cl)
		s.seenList = append(s.seenList, cl)
		if count == 0 {
			first = pos
		}
		last = pos
		count++
	}
	if count > 0 {
		interrupts := (last - first + 1) - count
		missing := gl - count
		sum += weight * (float64(interrupts)/float64(count) + float64(missing)/size + 1/size)
		numInsts += wcount
	}
	for _, sc := range s.seenList {
		s.seen.Remove(sc)
	}
	s.seenList = s.seenList[:0]
	c.scratch.Put(s)
	return sum, numInsts
}

// Grouping computes dist(G, L) per Eq. 2: the sum over all groups.
func (c *Calc) Grouping(groups []bitset.Set) float64 {
	total := 0.0
	for _, g := range groups {
		total += c.Group(g)
	}
	return total
}
