// Package constraints implements GECCO's constraint framework (§IV-A): the
// three constraint categories (grouping, class-based, instance-based), their
// monotonicity classification (Table II), a small textual DSL for declaring
// constraints, and an evaluator that checks a candidate group against a
// constraint set over an indexed event log.
package constraints

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gecco/internal/bitset"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
)

// Category partitions constraints as in §IV-A.
type Category int

const (
	// Grouping constraints (R_G) bound the size |G| of the grouping.
	Grouping Category = iota
	// Class constraints (R_C) are checked on a group's event classes alone.
	Class
	// Instance constraints (R_I) are checked on every group instance.
	Instance
)

func (c Category) String() string {
	switch c {
	case Grouping:
		return "grouping"
	case Class:
		return "class"
	case Instance:
		return "instance"
	}
	return "unknown"
}

// Monotonicity is the pruning-relevant property of Table II. A constraint is
// monotonic when enlarging a group can never introduce a violation, and
// anti-monotonic when enlarging a group can never repair one.
//
// Note that, as in the paper, the classification is stated with respect to
// adding event classes to a group; with split-on-repeat instance
// segmentation this is a (sound-in-practice) heuristic rather than a strict
// guarantee, because adding a class can re-segment instances.
type Monotonicity int

const (
	Monotonic Monotonicity = iota
	AntiMonotonic
	NonMonotonic
	NotApplicable // grouping constraints
)

func (m Monotonicity) String() string {
	switch m {
	case Monotonic:
		return "monotonic"
	case AntiMonotonic:
		return "anti-monotonic"
	case NonMonotonic:
		return "non-monotonic"
	case NotApplicable:
		return "n/a"
	}
	return "unknown"
}

// Op is a comparison operator used by threshold constraints.
type Op int

const (
	LE Op = iota
	GE
	EQ
	LT
	GT
)

func (o Op) String() string {
	return [...]string{"<=", ">=", "==", "<", ">"}[o]
}

// Cmp applies the operator to (value, threshold).
func (o Op) Cmp(v, threshold float64) bool {
	switch o {
	case LE:
		return v <= threshold
	case GE:
		return v >= threshold
	case EQ:
		return v == threshold
	case LT:
		return v < threshold
	case GT:
		return v > threshold
	}
	return false
}

// upperBounding reports whether the operator expresses "must not exceed".
func (o Op) upperBounding() bool { return o == LE || o == LT }

// lowerBounding reports whether the operator expresses "at least".
func (o Op) lowerBounding() bool { return o == GE || o == GT }

// boundMonotonicity is the Table II rule: minimum requirements are
// monotonic, maximum requirements anti-monotonic, equality non-monotonic —
// for quantities that can only grow as classes are added to a group.
func boundMonotonicity(o Op) Monotonicity {
	switch {
	case o.lowerBounding():
		return Monotonic
	case o.upperBounding():
		return AntiMonotonic
	default:
		return NonMonotonic
	}
}

// Constraint is a single requirement on the abstracted log.
type Constraint interface {
	Category() Category
	Monotonicity() Monotonicity
	String() string
}

// GroupingConstraint bounds the number of groups in the final grouping.
type GroupingConstraint interface {
	Constraint
	HoldsGrouping(numGroups int) bool
	// Bounds returns the implied (min, max) group counts; max < 0 means
	// unbounded. Used to translate R_G into MIP constraints (Eq. 5).
	Bounds() (minGroups, maxGroups int)
}

// ClassConstraint is checked against a group's classes in isolation.
type ClassConstraint interface {
	Constraint
	HoldsGroup(ctx *ClassContext, g bitset.Set) bool
}

// InstanceConstraint is checked against all instances of a group in the log.
// Implementations receive the precomputed instances and should exit early
// where possible.
type InstanceConstraint interface {
	Constraint
	HoldsInstances(ctx *InstanceContext, g bitset.Set, insts []instances.Instance) bool
}

// ClassContext carries the class-level information class constraints need.
type ClassContext struct {
	Classes []string
	ClassID map[string]int
	// AttrValues returns, per class id, the distinct values of the named
	// attribute (memoised by the evaluator).
	AttrValues func(attr string) []map[string]struct{}
}

// InstanceContext carries the event-level information instance constraints
// need.
type InstanceContext struct {
	X *eventlog.Index
}

// ---------------------------------------------------------------------------
// Grouping constraints (R_G)

// GroupCount is "|G| op n", e.g. |G| <= 3 (constraint Gr of Table IV).
type GroupCount struct {
	Op Op
	N  int
}

func (GroupCount) Category() Category         { return Grouping }
func (GroupCount) Monotonicity() Monotonicity { return NotApplicable }
func (c GroupCount) String() string           { return fmt.Sprintf("|G| %s %d", c.Op, c.N) }

func (c GroupCount) HoldsGrouping(k int) bool { return c.Op.Cmp(float64(k), float64(c.N)) }

func (c GroupCount) Bounds() (int, int) {
	switch c.Op {
	case LE:
		return 0, c.N
	case LT:
		return 0, c.N - 1
	case GE:
		return c.N, -1
	case GT:
		return c.N + 1, -1
	case EQ:
		return c.N, c.N
	}
	return 0, -1
}

// ---------------------------------------------------------------------------
// Class-based constraints (R_C)

// GroupSize is "|g| op n", e.g. |g| <= 8 (the constraint added to every
// experimental set in §VI-A).
type GroupSize struct {
	Op Op
	N  int
}

func (GroupSize) Category() Category           { return Class }
func (c GroupSize) Monotonicity() Monotonicity { return boundMonotonicity(c.Op) }
func (c GroupSize) String() string             { return fmt.Sprintf("|g| %s %d", c.Op, c.N) }

func (c GroupSize) HoldsGroup(_ *ClassContext, g bitset.Set) bool {
	return c.Op.Cmp(float64(g.Len()), float64(c.N))
}

// CannotLink forbids two event classes from sharing a group (anti-monotonic,
// Table II).
type CannotLink struct{ A, B string }

func (CannotLink) Category() Category         { return Class }
func (CannotLink) Monotonicity() Monotonicity { return AntiMonotonic }
func (c CannotLink) String() string {
	return fmt.Sprintf("cannotlink(%s, %s)", quoteName(c.A), quoteName(c.B))
}

func (c CannotLink) HoldsGroup(ctx *ClassContext, g bitset.Set) bool {
	a, okA := ctx.ClassID[c.A]
	b, okB := ctx.ClassID[c.B]
	if !okA || !okB {
		return true // classes absent from the log: vacuously satisfied
	}
	return !(g.Contains(a) && g.Contains(b))
}

// MustLink requires two event classes to share a group (non-monotonic,
// Table II): a group containing exactly one of the two violates it, while
// both its subsets and supersets may satisfy it.
type MustLink struct{ A, B string }

func (MustLink) Category() Category         { return Class }
func (MustLink) Monotonicity() Monotonicity { return NonMonotonic }
func (c MustLink) String() string {
	return fmt.Sprintf("mustlink(%s, %s)", quoteName(c.A), quoteName(c.B))
}

func (c MustLink) HoldsGroup(ctx *ClassContext, g bitset.Set) bool {
	a, okA := ctx.ClassID[c.A]
	b, okB := ctx.ClassID[c.B]
	if !okA || !okB {
		return true
	}
	return g.Contains(a) == g.Contains(b)
}

// ClassAttrDistinct is "distinct(class.D) op n": the number of distinct
// values of a class-level attribute across the group's classes, e.g. the
// case study's |g.origin| <= 1 (§VI-D) and baseline constraint BL3.
type ClassAttrDistinct struct {
	Attr string
	Op   Op
	N    int
}

func (ClassAttrDistinct) Category() Category           { return Class }
func (c ClassAttrDistinct) Monotonicity() Monotonicity { return boundMonotonicity(c.Op) }
func (c ClassAttrDistinct) String() string {
	return fmt.Sprintf("distinct(%s) %s %d", quoteName("class."+c.Attr), c.Op, c.N)
}

func (c ClassAttrDistinct) HoldsGroup(ctx *ClassContext, g bitset.Set) bool {
	vals := ctx.AttrValues(c.Attr)
	distinct := make(map[string]struct{})
	g.ForEach(func(cl int) bool {
		for v := range vals[cl] {
			distinct[v] = struct{}{}
		}
		return true
	})
	return c.Op.Cmp(float64(len(distinct)), float64(c.N))
}

// ---------------------------------------------------------------------------
// Instance-based constraints (R_I)

// Agg enumerates within-instance aggregation functions over an event
// attribute.
type Agg int

const (
	Sum Agg = iota
	Avg
	Min
	Max
	Count    // number of events in the instance (attribute ignored)
	Distinct // number of distinct attribute values in the instance
)

func (a Agg) String() string {
	return [...]string{"sum", "avg", "min", "max", "count", "distinct"}[a]
}

// InstanceAggregate is "agg(attr) op threshold" checked per group instance,
// e.g. sum(duration) >= 101 (set M), avg(duration) <= 5e5 (set N), and
// distinct(role) <= 3 (set A) of Table IV.
type InstanceAggregate struct {
	AggFn     Agg
	Attr      string
	Op        Op
	Threshold float64
	// AllowNegative marks sum aggregations over attributes that may be
	// negative, which makes them non-monotonic (Table II's remark).
	AllowNegative bool
}

func (InstanceAggregate) Category() Category { return Instance }

func (c InstanceAggregate) Monotonicity() Monotonicity {
	switch c.AggFn {
	case Sum:
		if c.AllowNegative {
			return NonMonotonic
		}
		return boundMonotonicity(c.Op)
	case Count, Distinct:
		return boundMonotonicity(c.Op)
	case Avg:
		return NonMonotonic
	case Min:
		// Adding events can only lower the minimum.
		if c.Op.upperBounding() {
			return Monotonic
		}
		if c.Op.lowerBounding() {
			return AntiMonotonic
		}
		return NonMonotonic
	case Max:
		return boundMonotonicity(c.Op)
	}
	return NonMonotonic
}

func (c InstanceAggregate) String() string {
	attr := quoteName(c.Attr)
	if c.AggFn == Count && c.Attr == "" {
		attr = "" // count() counts every event
	}
	return fmt.Sprintf("%s(%s) %s %g", c.AggFn, attr, c.Op, c.Threshold)
}

// holdsOne checks the constraint for a single instance, reading the
// attribute's column at the instance's global event positions — typed array
// loads gated by a presence bitset, no per-event map probe.
//
//gecco:hotpath
func (c InstanceAggregate) holdsOne(ctx *InstanceContext, col *eventlog.Column, inst *instances.Instance) bool {
	base := ctx.X.TraceStart(inst.Trace)
	switch c.AggFn {
	case Count:
		return c.Op.Cmp(float64(len(inst.Positions)), c.Threshold)
	case Distinct:
		return c.Op.Cmp(float64(distinctValues(col, base, inst.Positions)), c.Threshold)
	}
	sum, n := 0.0, 0
	mn, mx := 0.0, 0.0
	if col != nil {
		for _, pos := range inst.Positions {
			v, ok := col.Num(base + pos)
			if !ok {
				continue
			}
			if n == 0 {
				mn, mx = v, v
			} else {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			sum += v
			n++
		}
	}
	if n == 0 {
		return true // no values: vacuously satisfied
	}
	switch c.AggFn {
	case Sum:
		return c.Op.Cmp(sum, c.Threshold)
	case Avg:
		return c.Op.Cmp(sum/float64(n), c.Threshold)
	case Min:
		return c.Op.Cmp(mn, c.Threshold)
	case Max:
		return c.Op.Cmp(mx, c.Threshold)
	}
	return true
}

// distinctValues counts the distinct categorical keys of the attribute over
// the instance's events. Pure-string columns compare dictionary codes with a
// linear scan over the (small) instance — no string hashing at all; other
// columns fall back to AsString-equivalent keys.
func distinctValues(col *eventlog.Column, base int, positions []int) int {
	if col == nil {
		return 0
	}
	if col.StringsOnly() {
		if len(positions) <= 64 {
			// Typical instances are short: a linear scan over seen codes
			// beats any hashing.
			codes := make([]uint32, 0, len(positions))
			for _, pos := range positions {
				code, ok := col.Code(base + pos)
				if !ok {
					continue
				}
				dup := false
				for _, seen := range codes {
					if seen == code {
						dup = true
						break
					}
				}
				if !dup {
					codes = append(codes, code)
				}
			}
			return len(codes)
		}
		seen := make(map[uint32]struct{}, len(positions))
		for _, pos := range positions {
			if code, ok := col.Code(base + pos); ok {
				seen[code] = struct{}{}
			}
		}
		return len(seen)
	}
	seen := make(map[string]struct{}, len(positions))
	for _, pos := range positions {
		if key, ok := col.Key(base + pos); ok {
			seen[key] = struct{}{}
		}
	}
	return len(seen)
}

//gecco:hotpath
func (c InstanceAggregate) HoldsInstances(ctx *InstanceContext, _ bitset.Set, insts []instances.Instance) bool {
	col := ctx.X.Column(c.Attr)
	for i := range insts {
		if !c.holdsOne(ctx, col, &insts[i]) {
			return false
		}
	}
	return true
}

// MaxGap is "gap <= seconds": the time between consecutive events of an
// instance must not exceed the bound (anti-monotonic, Table II).
type MaxGap struct{ Seconds float64 }

func (MaxGap) Category() Category         { return Instance }
func (MaxGap) Monotonicity() Monotonicity { return AntiMonotonic }
func (c MaxGap) String() string           { return fmt.Sprintf("gap <= %g", c.Seconds) }

func (c MaxGap) HoldsInstances(ctx *InstanceContext, _ bitset.Set, insts []instances.Instance) bool {
	col := ctx.X.Column(eventlog.AttrTimestamp)
	if col == nil {
		return true
	}
	for i := range insts {
		inst := &insts[i]
		base := ctx.X.TraceStart(inst.Trace)
		var prev time.Time
		havePrev := false
		for _, pos := range inst.Positions {
			t, ok := col.Time(base + pos)
			if !ok {
				continue
			}
			if havePrev && t.Sub(prev).Seconds() > c.Seconds {
				return false
			}
			prev, havePrev = t, true
		}
	}
	return true
}

// EventsPerClass is "eventsperclass op n": a bound on the number of events
// per event class within an instance (Table II lists the <= 1 form as
// anti-monotonic).
type EventsPerClass struct {
	Op Op
	N  int
}

func (EventsPerClass) Category() Category           { return Instance }
func (c EventsPerClass) Monotonicity() Monotonicity { return boundMonotonicity(c.Op) }
func (c EventsPerClass) String() string             { return fmt.Sprintf("eventsperclass %s %d", c.Op, c.N) }

//gecco:hotpath
func (c EventsPerClass) HoldsInstances(ctx *InstanceContext, _ bitset.Set, insts []instances.Instance) bool {
	// One count-slice per check, reused across instances by re-zeroing only
	// the touched classes — no per-instance map allocation.
	counts := make([]int, ctx.X.NumClasses())
	var touched []int
	for i := range insts {
		touched = instances.ClassCountsInto(ctx.X, &insts[i], counts, touched[:0])
		ok := true
		for _, cl := range touched {
			if !c.Op.Cmp(float64(counts[cl]), float64(c.N)) {
				ok = false
			}
			counts[cl] = 0
		}
		if !ok {
			return false
		}
	}
	return true
}

// ClassCardinality is "count(class) op n": a per-instance cardinality bound
// on events of one specific class (§IV-A notes inst can enforce these). The
// constraint is vacuous for groups not containing the class.
type ClassCardinality struct {
	ClassName string
	Op        Op
	N         int
}

func (ClassCardinality) Category() Category           { return Instance }
func (c ClassCardinality) Monotonicity() Monotonicity { return boundMonotonicity(c.Op) }
func (c ClassCardinality) String() string {
	return fmt.Sprintf("count(%s) %s %d", quoteName(c.ClassName), c.Op, c.N)
}

//gecco:hotpath
func (c ClassCardinality) HoldsInstances(ctx *InstanceContext, g bitset.Set, insts []instances.Instance) bool {
	id, ok := ctx.X.ClassID[c.ClassName]
	if !ok || !g.Contains(id) {
		return true
	}
	counts := make([]int, ctx.X.NumClasses())
	var touched []int
	for i := range insts {
		touched = instances.ClassCountsInto(ctx.X, &insts[i], counts, touched[:0])
		n := counts[id]
		for _, cl := range touched {
			counts[cl] = 0
		}
		if !c.Op.Cmp(float64(n), float64(c.N)) {
			return false
		}
	}
	return true
}

// InstanceSpan is "span op seconds": each instance's wall-clock duration
// (last minus first timestamp) compared to a bound.
type InstanceSpan struct {
	Op      Op
	Seconds float64
}

func (InstanceSpan) Category() Category           { return Instance }
func (c InstanceSpan) Monotonicity() Monotonicity { return boundMonotonicity(c.Op) }
func (c InstanceSpan) String() string             { return fmt.Sprintf("span %s %g", c.Op, c.Seconds) }

func (c InstanceSpan) HoldsInstances(ctx *InstanceContext, _ bitset.Set, insts []instances.Instance) bool {
	col := ctx.X.Column(eventlog.AttrTimestamp)
	if col == nil {
		return true
	}
	for i := range insts {
		if s, ok := spanSeconds(ctx.X, col, &insts[i]); ok && !c.Op.Cmp(s, c.Seconds) {
			return false
		}
	}
	return true
}

// AvgInstanceSpan is "avgspan op seconds": the average wall-clock duration
// over all of the group's instances (Table II's "at most 1 hour on average";
// non-monotonic because it aggregates across instances).
type AvgInstanceSpan struct {
	Op      Op
	Seconds float64
}

func (AvgInstanceSpan) Category() Category         { return Instance }
func (AvgInstanceSpan) Monotonicity() Monotonicity { return NonMonotonic }
func (c AvgInstanceSpan) String() string           { return fmt.Sprintf("avgspan %s %g", c.Op, c.Seconds) }

func (c AvgInstanceSpan) HoldsInstances(ctx *InstanceContext, _ bitset.Set, insts []instances.Instance) bool {
	col := ctx.X.Column(eventlog.AttrTimestamp)
	if col == nil {
		return true
	}
	sum, n := 0.0, 0
	for i := range insts {
		if s, ok := spanSeconds(ctx.X, col, &insts[i]); ok {
			sum += s
			n++
		}
	}
	if n == 0 {
		return true
	}
	return c.Op.Cmp(sum/float64(n), c.Seconds)
}

// spanSeconds computes the instance's wall-clock duration from the
// timestamp column; callers resolve (and nil-check) the column once per
// constraint check, not per instance.
func spanSeconds(x *eventlog.Index, col *eventlog.Column, inst *instances.Instance) (float64, bool) {
	base := x.TraceStart(inst.Trace)
	first, last := inst.Span()
	tf, okF := col.Time(base + first)
	tl, okL := col.Time(base + last)
	if !okF || !okL {
		return 0, false
	}
	return tl.Sub(tf).Seconds(), true
}

// Percentage loosens a per-instance constraint to hold for a fraction of the
// group's instances, e.g. pct(0.95, sum(cost) <= 500) (Table II's last row,
// classified anti-monotonic like its inner constraint there).
type Percentage struct {
	Fraction float64
	Inner    InstanceConstraint
}

func (Percentage) Category() Category { return Instance }

func (c Percentage) Monotonicity() Monotonicity {
	// Follow the paper's Table II, which classifies the loosened constraint
	// like its strict counterpart.
	return c.Inner.Monotonicity()
}

func (c Percentage) String() string {
	return fmt.Sprintf("pct(%g, %s)", c.Fraction, c.Inner)
}

func (c Percentage) HoldsInstances(ctx *InstanceContext, g bitset.Set, insts []instances.Instance) bool {
	if len(insts) == 0 {
		return true
	}
	ok := 0
	for i := range insts {
		if c.Inner.HoldsInstances(ctx, g, insts[i:i+1]) {
			ok++
		}
	}
	return float64(ok)/float64(len(insts)) >= c.Fraction
}

// ---------------------------------------------------------------------------
// Constraint sets

// Set is a partitioned collection of constraints (the paper's R, split into
// R_G, R_C, R_I).
type Set struct {
	Grouping []GroupingConstraint
	Class    []ClassConstraint
	Instance []InstanceConstraint
}

// NewSet partitions arbitrary constraints by category.
func NewSet(cs ...Constraint) *Set {
	s := &Set{}
	for _, c := range cs {
		s.Add(c)
	}
	return s
}

// Add inserts a constraint into its category slice. It panics if the
// constraint does not implement the interface matching its category, which
// indicates a programming error in a constraint type.
func (s *Set) Add(c Constraint) {
	switch c.Category() {
	case Grouping:
		s.Grouping = append(s.Grouping, c.(GroupingConstraint))
	case Class:
		s.Class = append(s.Class, c.(ClassConstraint))
	case Instance:
		s.Instance = append(s.Instance, c.(InstanceConstraint))
	}
}

// All returns every constraint in the set.
func (s *Set) All() []Constraint {
	out := make([]Constraint, 0, len(s.Grouping)+len(s.Class)+len(s.Instance))
	for _, c := range s.Grouping {
		out = append(out, c)
	}
	for _, c := range s.Class {
		out = append(out, c)
	}
	for _, c := range s.Instance {
		out = append(out, c)
	}
	return out
}

// Len returns the number of constraints in the set.
func (s *Set) Len() int { return len(s.Grouping) + len(s.Class) + len(s.Instance) }

// String renders the set canonically: its constraint texts in sorted
// order, each followed by a newline. Declaration order does not change the
// text, and ParseSet reads it back to an equal set, so it keys result
// caches and pipeline chains.
func (s *Set) String() string {
	parts := make([]string, 0, s.Len())
	for _, c := range s.All() {
		parts = append(parts, c.String())
	}
	sort.Strings(parts)
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	return b.String()
}

// Mode is the constraint-checking mode of Algorithm 1 (line 1).
type Mode int

const (
	// ModeAnti: at least one anti-monotonic per-group constraint exists, so
	// violating groups need not be expanded.
	ModeAnti Mode = iota
	// ModeMono: all per-group constraints are monotonic, so supersets of
	// satisfying groups need no re-validation.
	ModeMono
	// ModeNon: neither pruning strategy applies.
	ModeNon
)

func (m Mode) String() string {
	return [...]string{"anti-monotonic", "monotonic", "non-monotonic"}[m]
}

// CheckingMode implements setCheckingMode(R): anti-monotonic if R contains
// at least one anti-monotonic constraint, monotonic if all per-group
// constraints (R \ R_G) are monotonic, otherwise non-monotonic.
func (s *Set) CheckingMode() Mode {
	perGroup := make([]Constraint, 0, len(s.Class)+len(s.Instance))
	for _, c := range s.Class {
		perGroup = append(perGroup, c)
	}
	for _, c := range s.Instance {
		perGroup = append(perGroup, c)
	}
	allMono := true
	for _, c := range perGroup {
		switch c.Monotonicity() {
		case AntiMonotonic:
			return ModeAnti
		case Monotonic:
		default:
			allMono = false
		}
	}
	if len(perGroup) > 0 && allMono {
		return ModeMono
	}
	return ModeNon
}

// GroupBounds folds all grouping constraints into a single (min, max) bound
// on |G|; max < 0 means unbounded.
func (s *Set) GroupBounds() (minGroups, maxGroups int) {
	minGroups, maxGroups = 0, -1
	for _, c := range s.Grouping {
		lo, hi := c.Bounds()
		if lo > minGroups {
			minGroups = lo
		}
		if hi >= 0 && (maxGroups < 0 || hi < maxGroups) {
			maxGroups = hi
		}
	}
	return minGroups, maxGroups
}
