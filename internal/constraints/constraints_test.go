package constraints

import (
	"strings"
	"testing"

	"gecco/internal/bitset"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/procgen"
)

func evaluatorFor(t *testing.T, log *eventlog.Log, set *Set) (*eventlog.Index, *Evaluator) {
	t.Helper()
	x := eventlog.NewIndex(log)
	return x, NewEvaluator(x, set, instances.SplitOnRepeat)
}

func group(x *eventlog.Index, names ...string) bitset.Set {
	g, unknown := x.GroupFromNames(names)
	if len(unknown) > 0 {
		panic("unknown class " + strings.Join(unknown, ","))
	}
	return g
}

// --- Monotonicity classification (Table II) ------------------------------

func TestMonotonicityTable2(t *testing.T) {
	cases := []struct {
		src  string
		want Monotonicity
	}{
		{"|g| >= 5", Monotonic},
		{"|g| <= 10", AntiMonotonic},
		{"cannotlink(rcp, acc)", AntiMonotonic},
		{"mustlink(inf, arv)", NonMonotonic},
		{"distinct(doc) >= 2", Monotonic},
		{"max(cost) <= 500", AntiMonotonic},
		{"avgspan <= 3600", NonMonotonic},
		{"gap <= 600", AntiMonotonic},
		{"eventsperclass <= 1", AntiMonotonic},
		{"pct(0.95, max(cost) <= 500)", AntiMonotonic},
		{"sum(duration) >= 101", Monotonic},
		{"avg(duration) <= 5e5", NonMonotonic},
		{"distinct(role) <= 3", AntiMonotonic},
		{"min(cost) >= 10", AntiMonotonic},
		{"min(cost) <= 10", Monotonic},
		{"count() >= 2", Monotonic},
	}
	for _, tc := range cases {
		c := MustParse(tc.src)
		if got := c.Monotonicity(); got != tc.want {
			t.Errorf("%s: monotonicity %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestCheckingMode(t *testing.T) {
	cases := []struct {
		srcs []string
		want Mode
	}{
		{[]string{"|g| <= 8"}, ModeAnti},
		{[]string{"sum(duration) >= 101"}, ModeMono},
		{[]string{"avg(duration) <= 5e5"}, ModeNon},
		{[]string{"sum(duration) >= 101", "avg(duration) <= 5e5"}, ModeNon},
		{[]string{"sum(duration) >= 101", "|g| <= 8"}, ModeAnti},
		{[]string{"|G| <= 3"}, ModeNon}, // grouping constraints don't count
	}
	for _, tc := range cases {
		set := &Set{}
		for _, s := range tc.srcs {
			set.Add(MustParse(s))
		}
		if got := set.CheckingMode(); got != tc.want {
			t.Errorf("%v: mode %v, want %v", tc.srcs, got, tc.want)
		}
	}
}

// --- Parser ----------------------------------------------------------------

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"|G| <= 3", "|G| >= 5", "|g| <= 8", "|g| >= 5",
		"cannotlink(rcp, acc)", "mustlink(inf, arv)",
		"distinct(class.org) <= 1", "distinct(role) <= 3",
		"sum(duration) >= 101", "avg(duration) <= 500000",
		"min(cost) >= 10", "max(cost) <= 500",
		"count() <= 12", "count(rcp) >= 2",
		"gap <= 600", "eventsperclass <= 1",
		"span <= 3600", "avgspan <= 3600",
		"pct(0.95, max(cost) <= 500)",
		"cannotlink('A_Create Application', 'O_Created')", "count('W_Call after offers') >= 1",
		"cannotlink('a, b', c)", "cannotlink(a, 'b, c')", "mustlink('', 'x)')",
		"distinct('org:resource') <= 1", "distinct('class.org:unit') <= 1", "sum('cost:total') <= 1e6",
	}
	for _, src := range srcs {
		c, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		// Re-parse the canonical form.
		if _, err := Parse(c.String()); err != nil {
			t.Errorf("re-Parse(%q from %q): %v", c.String(), src, err)
		}
	}
}

func TestParseQuotedNames(t *testing.T) {
	c := MustParse("cannotlink('A_Create Application', 'O_Created')")
	cl, ok := c.(CannotLink)
	if !ok || cl.A != "A_Create Application" || cl.B != "O_Created" {
		t.Fatalf("parsed %#v", c)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "bogus", "|G| <=", "|g| ~ 3", "sum() >= 1",
		"pct(1.5, gap <= 10)", "pct(0.5, |g| <= 3)", "gap >= 10",
		"|g| <= 8 trailing", "sum(duration >= 101",
		"maxinstances < -9223372036854775808",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseSetSkipsComments(t *testing.T) {
	set, err := ParseSet("# comment\n|g| <= 8\n\n|G| <= 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Class) != 1 || len(set.Grouping) != 1 {
		t.Fatalf("set %+v", set)
	}
}

// --- Class constraints -------------------------------------------------------

func TestGroupSizeAndLinks(t *testing.T) {
	log := procgen.RunningExampleTable1()
	x, ev := evaluatorFor(t, log, NewSet(
		MustParse("|g| <= 2"),
		MustParse("cannotlink(rcp, acc)"),
		MustParse("mustlink(inf, arv)"),
	))
	if ev.HoldsClass(group(x, "rcp", "ckc", "ckt")) {
		t.Error("size-3 group should violate |g| <= 2")
	}
	if ev.HoldsClass(group(x, "rcp", "acc")) {
		t.Error("cannot-link violated group accepted")
	}
	if ev.HoldsClass(group(x, "inf", "prio")) {
		t.Error("must-link: inf without arv accepted")
	}
	if !ev.HoldsClass(group(x, "inf", "arv")) {
		t.Error("inf+arv should satisfy all")
	}
	if !ev.HoldsClass(group(x, "prio")) {
		t.Error("singleton without linked classes should satisfy must-link")
	}
}

func TestClassAttrDistinct(t *testing.T) {
	log := procgen.RunningExampleTable1()
	x, ev := evaluatorFor(t, log, NewSet(MustParse("distinct(class.role) <= 1")))
	if !ev.HoldsClass(group(x, "rcp", "ckc")) {
		t.Error("same-role group rejected")
	}
	if ev.HoldsClass(group(x, "rcp", "acc")) {
		t.Error("clerk+manager group accepted")
	}
}

// --- Instance constraints ----------------------------------------------------

func TestInstanceRoleDistinct(t *testing.T) {
	log := procgen.RunningExampleTable1()
	x, ev := evaluatorFor(t, log, NewSet(MustParse("distinct(role) <= 1")))
	if !ev.Holds(group(x, "rcp", "ckc", "ckt")) {
		t.Error("clerk-only group rejected")
	}
	if ev.Holds(group(x, "ckc", "acc")) {
		t.Error("mixed-role instance accepted")
	}
}

func TestSumDuration(t *testing.T) {
	log := procgen.RunningExampleTable1() // every event has duration 60
	x, ev := evaluatorFor(t, log, NewSet(MustParse("sum(duration) >= 101")))
	if ev.Holds(group(x, "prio")) {
		t.Error("singleton with 60s duration should fail sum >= 101")
	}
	if !ev.Holds(group(x, "inf", "arv")) {
		t.Error("two 60s events (120s) should pass sum >= 101")
	}
}

func TestEventsPerClass(t *testing.T) {
	// Trace with a repeated class within one instance needs WholeTrace to
	// trigger the violation (SplitOnRepeat splits at the repeat).
	log := &eventlog.Log{Traces: []eventlog.Trace{{ID: "1", Events: []eventlog.Event{
		{Class: "a"}, {Class: "b"}, {Class: "a"},
	}}}}
	x := eventlog.NewIndex(log)
	set := NewSet(MustParse("eventsperclass <= 1"))
	evWhole := NewEvaluator(x, set, instances.WholeTrace)
	if evWhole.Holds(group(x, "a", "b")) {
		t.Error("whole-trace instance with 2×a accepted")
	}
	evSplit := NewEvaluator(x, set, instances.SplitOnRepeat)
	if !evSplit.Holds(group(x, "a", "b")) {
		t.Error("split-on-repeat guarantees 1 event per class per instance")
	}
}

func TestMaxGapAndSpan(t *testing.T) {
	log := procgen.RunningExampleTable1() // events 60s apart within a trace
	x, _ := evaluatorFor(t, log, NewSet())
	gapOK := NewEvaluator(x, NewSet(MustParse("gap <= 61")), instances.SplitOnRepeat)
	if !gapOK.Holds(group(x, "inf", "arv")) {
		t.Error("61s gap bound should accept 60s-apart events")
	}
	gapTight := NewEvaluator(x, NewSet(MustParse("gap <= 59")), instances.SplitOnRepeat)
	if gapTight.Holds(group(x, "inf", "arv")) {
		t.Error("59s gap bound should reject 60s-apart events")
	}
	span := NewEvaluator(x, NewSet(MustParse("span <= 30")), instances.SplitOnRepeat)
	if span.Holds(group(x, "rcp", "ckc")) {
		t.Error("span 60s should exceed 30s bound")
	}
}

func TestPercentageConstraint(t *testing.T) {
	// prio occurs in 3 of 4 traces; inf+arv instances: gap 60s everywhere
	// except σ4 where arv,inf are adjacent... construct a cleaner case:
	// cost <= 10 holds for all (cost fixed at 10), so pct(0.9, ...) holds;
	// cost <= 9 fails everywhere, so pct(0.1, ...) fails.
	log := procgen.RunningExampleTable1()
	x, _ := evaluatorFor(t, log, NewSet())
	pass := NewEvaluator(x, NewSet(MustParse("pct(0.9, max(cost) <= 10)")), instances.SplitOnRepeat)
	if !pass.Holds(group(x, "inf", "arv")) {
		t.Error("pct with satisfied inner should hold")
	}
	fail := NewEvaluator(x, NewSet(MustParse("pct(0.1, max(cost) <= 9)")), instances.SplitOnRepeat)
	if fail.Holds(group(x, "inf", "arv")) {
		t.Error("pct with universally violated inner should fail")
	}
}

func TestClassCardinality(t *testing.T) {
	log := &eventlog.Log{Traces: []eventlog.Trace{{ID: "1", Events: []eventlog.Event{
		{Class: "a"}, {Class: "a"}, {Class: "b"},
	}}}}
	x := eventlog.NewIndex(log)
	ev := NewEvaluator(x, NewSet(MustParse("count(a) >= 2")), instances.WholeTrace)
	if !ev.Holds(group(x, "a", "b")) {
		t.Error("instance with 2×a should satisfy count(a) >= 2")
	}
	ev1 := NewEvaluator(x, NewSet(MustParse("count(b) >= 2")), instances.WholeTrace)
	if ev1.Holds(group(x, "a", "b")) {
		t.Error("instance with 1×b should violate count(b) >= 2")
	}
	// Vacuous for groups not containing the class.
	if !ev1.Holds(group(x, "a")) {
		t.Error("count(b) should be vacuous for group {a}")
	}
}

// --- Grouping constraints -----------------------------------------------------

func TestGroupBounds(t *testing.T) {
	set := NewSet(MustParse("|G| <= 7"), MustParse("|G| >= 3"))
	lo, hi := set.GroupBounds()
	if lo != 3 || hi != 7 {
		t.Fatalf("bounds = (%d, %d)", lo, hi)
	}
	set2 := NewSet(MustParse("|G| == 5"))
	lo, hi = set2.GroupBounds()
	if lo != 5 || hi != 5 {
		t.Fatalf("eq bounds = (%d, %d)", lo, hi)
	}
	if !set2.Grouping[0].HoldsGrouping(5) || set2.Grouping[0].HoldsGrouping(4) {
		t.Error("HoldsGrouping for ==")
	}
}

// --- Evaluator memoisation and diagnostics ------------------------------------

func TestEvaluatorMemoises(t *testing.T) {
	log := procgen.RunningExampleTable1()
	x, ev := evaluatorFor(t, log, NewSet(MustParse("distinct(role) <= 1")))
	g := group(x, "rcp", "ckc")
	ev.Holds(g)
	ev.Holds(g)
	if ev.Checks() != 1 {
		t.Fatalf("Checks = %d, want 1", ev.Checks())
	}
}

func TestDiagnose(t *testing.T) {
	log := procgen.RunningExampleTable1()
	// Every singleton violates sum(duration) >= 101 (each event is 60s).
	x, ev := evaluatorFor(t, log, NewSet(MustParse("sum(duration) >= 101")))
	_ = x
	v := ev.Diagnose()
	if len(v.UncoverableClasses) != 8 {
		t.Fatalf("uncoverable = %v, want all 8 classes", v.UncoverableClasses)
	}
	if v.PerConstraint["sum(duration) >= 101"] != 1.0 {
		t.Fatalf("per-constraint fraction %v", v.PerConstraint)
	}
}

// TestSharesSortedDeterministicOrder pins the rendering order of the
// per-constraint diagnostics: descending rejection share, ties by constraint
// text. The CLI and examples print via SharesSorted, never by ranging over
// the PerConstraint map, so infeasibility reports are byte-identical per run.
func TestSharesSortedDeterministicOrder(t *testing.T) {
	v := &Violations{PerConstraint: map[string]float64{
		"distinct(role) <= 1":  0.25,
		"sum(duration) >= 101": 1.0,
		"min(count) >= 2":      0.25,
	}}
	want := []ConstraintShare{
		{"sum(duration) >= 101", 1.0},
		{"distinct(role) <= 1", 0.25},
		{"min(count) >= 2", 0.25},
	}
	for i := 0; i < 50; i++ {
		got := v.SharesSorted()
		if len(got) != len(want) {
			t.Fatalf("SharesSorted len = %d, want %d", len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("iteration %d: SharesSorted[%d] = %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
	if (*Violations)(nil).SharesSorted() != nil {
		t.Error("nil Violations should yield nil shares")
	}
}

func TestVacuousForMissingAttr(t *testing.T) {
	log := &eventlog.Log{Traces: []eventlog.Trace{{ID: "1", Events: []eventlog.Event{
		{Class: "a"}, {Class: "b"},
	}}}}
	x := eventlog.NewIndex(log)
	ev := NewEvaluator(x, NewSet(MustParse("sum(duration) >= 101")), instances.SplitOnRepeat)
	if !ev.Holds(group(x, "a", "b")) {
		t.Error("aggregate over absent attribute should be vacuously satisfied")
	}
}

// HoldsAnti checks only the anti-monotonic subset: a group violating a
// non-monotonic constraint but satisfying the anti-monotonic ones must
// remain expandable.
func TestHoldsAnti(t *testing.T) {
	log := procgen.RunningExampleTable1()
	x, ev := evaluatorFor(t, log, NewSet(
		MustParse("|g| <= 3"),           // anti-monotonic
		MustParse("mustlink(inf, arv)"), // non-monotonic
	))
	inf := group(x, "inf") // violates mustlink, satisfies |g| <= 3
	if ev.Holds(inf) {
		t.Fatal("lone {inf} violates mustlink")
	}
	if !ev.HoldsAnti(inf) {
		t.Fatal("{inf} satisfies the anti-monotonic subset and must stay expandable")
	}
	big := group(x, "rcp", "ckc", "ckt", "prio") // violates |g| <= 3
	if ev.HoldsAnti(big) {
		t.Fatal("size-4 group violates the anti-monotonic size bound")
	}
	// Memoised.
	before := ev.LogPasses()
	ev.HoldsAnti(inf)
	if ev.LogPasses() != before {
		t.Fatal("HoldsAnti verdict not memoised")
	}
}

func TestStringForms(t *testing.T) {
	// Every constraint type renders a parseable, stable string.
	forms := []Constraint{
		GroupCount{Op: LE, N: 3},
		GroupSize{Op: GE, N: 2},
		CannotLink{A: "a", B: "b"},
		MustLink{A: "a", B: "b"},
		ClassAttrDistinct{Attr: "org", Op: EQ, N: 1},
		InstanceAggregate{AggFn: Sum, Attr: "cost", Op: LE, Threshold: 5},
		InstanceAggregate{AggFn: Count, Op: GE, Threshold: 2},
		MaxGap{Seconds: 60},
		EventsPerClass{Op: LE, N: 1},
		ClassCardinality{ClassName: "rcp", Op: GE, N: 2},
		InstanceSpan{Op: LE, Seconds: 10},
		AvgInstanceSpan{Op: LE, Seconds: 10},
		Percentage{Fraction: 0.9, Inner: MaxGap{Seconds: 60}},
		AvgInstancesPerTrace{Op: GE, N: 2},
		MaxInstancesPerTrace{N: 4},
	}
	for _, c := range forms {
		s := c.String()
		if s == "" {
			t.Errorf("%T renders empty", c)
		}
		re, err := Parse(s)
		if err != nil {
			t.Errorf("%T: %q does not re-parse: %v", c, s, err)
			continue
		}
		if re.String() != s {
			t.Errorf("%T: unstable string %q -> %q", c, s, re.String())
		}
	}
	// Category and mode strings.
	for _, cat := range []Category{Grouping, Class, Instance} {
		if cat.String() == "unknown" {
			t.Error("category string unknown")
		}
	}
	for _, m := range []Monotonicity{Monotonic, AntiMonotonic, NonMonotonic, NotApplicable} {
		if m.String() == "unknown" {
			t.Error("monotonicity string unknown")
		}
	}
	for _, m := range []Mode{ModeAnti, ModeMono, ModeNon} {
		if m.String() == "" {
			t.Error("mode string empty")
		}
	}
}

func TestInstanceAggregateMinMax(t *testing.T) {
	log := procgen.RunningExampleTable1() // cost fixed at 10 per event
	x, _ := evaluatorFor(t, log, NewSet())
	g := group(x, "inf", "arv")
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"min(cost) >= 10", true},
		{"min(cost) >= 11", false},
		{"max(cost) <= 10", true},
		{"max(cost) <= 9", false},
		{"count() >= 1", true},
		{"count() >= 3", false},
		{"distinct(role) >= 1", true},
	} {
		ev := NewEvaluator(x, NewSet(MustParse(tc.src)), instances.SplitOnRepeat)
		if got := ev.Holds(g); got != tc.want {
			t.Errorf("%s on {inf,arv}: %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestSumAllowNegativeNonMonotonic(t *testing.T) {
	c := InstanceAggregate{AggFn: Sum, Attr: "delta", Op: GE, Threshold: 0, AllowNegative: true}
	if c.Monotonicity() != NonMonotonic {
		t.Fatal("sums over possibly-negative values are non-monotonic (Table II)")
	}
}

func TestViolationsString(t *testing.T) {
	var v *Violations
	if v.String() != "feasible" {
		t.Error("nil violations should read feasible")
	}
	v = &Violations{UncoverableClasses: []string{"a", "b", "c", "d", "e", "f"}, GroupBoundConflict: "conflict"}
	s := v.String()
	if !strings.Contains(s, "6 uncoverable") || !strings.Contains(s, "conflict") {
		t.Errorf("violations string %q", s)
	}
}

// TestSetStringCanonical: a set's text is its sorted constraint texts, one
// per line, so two declaration orders of one set render identically, and
// the text parses back to a set with the same text.
func TestSetStringCanonical(t *testing.T) {
	lines := []string{"|g| <= 8", "distinct(role) <= 3", "count(review) >= 1", "|G| >= 2"}
	forward, err := ParseSet(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]string, len(lines))
	for i, l := range lines {
		reversed[len(lines)-1-i] = l
	}
	backward, err := ParseSet(strings.Join(reversed, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := forward.String()
	if got := backward.String(); got != s {
		t.Fatalf("declaration order changed the text:\n%q\n%q", s, got)
	}
	const want = "count(review) >= 1\ndistinct(role) <= 3\n|G| >= 2\n|g| <= 8\n"
	if s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
	back, err := ParseSet(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.String(); got != s {
		t.Fatalf("ParseSet(String()).String() = %q, want %q", got, s)
	}
}
