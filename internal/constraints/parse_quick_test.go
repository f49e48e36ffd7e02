package constraints

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomConstraint builds a random constraint AST.
func randomConstraint(rng *rand.Rand, allowPct bool) Constraint {
	op := func() Op { return Op(rng.Intn(5)) }
	n := func() int { return rng.Intn(20) + 1 }
	th := func() float64 { return math.Round(rng.Float64()*1000) / 4 }
	attr := []string{"role", "cost", "duration", "org"}[rng.Intn(4)]
	name := []string{"rcp", "acc", "inf", "arv"}[rng.Intn(4)]
	kinds := 12
	if allowPct {
		kinds = 13
	}
	switch rng.Intn(kinds) {
	case 0:
		return GroupCount{Op: op(), N: n()}
	case 1:
		return GroupSize{Op: op(), N: n()}
	case 2:
		return CannotLink{A: name, B: "other"}
	case 3:
		return MustLink{A: name, B: "other"}
	case 4:
		return ClassAttrDistinct{Attr: attr, Op: op(), N: n()}
	case 5:
		agg := Agg(rng.Intn(4)) // Sum, Avg, Min, Max
		return InstanceAggregate{AggFn: agg, Attr: attr, Op: op(), Threshold: th()}
	case 6:
		return InstanceAggregate{AggFn: Distinct, Attr: attr, Op: op(), Threshold: float64(n())}
	case 7:
		return MaxGap{Seconds: th() + 1}
	case 8:
		return EventsPerClass{Op: op(), N: n()}
	case 9:
		return ClassCardinality{ClassName: name, Op: op(), N: n()}
	case 10:
		return InstanceSpan{Op: op(), Seconds: th()}
	case 11:
		return AvgInstanceSpan{Op: op(), Seconds: th()}
	default:
		inner := randomConstraint(rng, false)
		ic, ok := inner.(InstanceConstraint)
		if !ok {
			return Percentage{Fraction: 0.9, Inner: MaxGap{Seconds: 1}}
		}
		return Percentage{Fraction: math.Round(rng.Float64()*100) / 100, Inner: ic}
	}
}

// Property: String → Parse → String is a fixed point for random ASTs.
func TestQuickStringParseFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		c := randomConstraint(rng, true)
		s := c.String()
		parsed, err := Parse(s)
		if err != nil {
			t.Fatalf("trial %d: %q failed to parse: %v", trial, s, err)
		}
		if parsed.String() != s {
			t.Fatalf("trial %d: %q re-parsed as %q", trial, s, parsed.String())
		}
		if parsed.Category() != c.Category() {
			t.Fatalf("trial %d: %q category changed", trial, s)
		}
		if parsed.Monotonicity() != c.Monotonicity() {
			t.Fatalf("trial %d: %q monotonicity changed", trial, s)
		}
	}
}

// Property: Parse never panics on arbitrary input; it either errors or
// yields a constraint whose String re-parses.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(input string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse(%q) panicked: %v", input, r)
			}
		}()
		c, err := Parse(input)
		if err != nil {
			return true
		}
		_, err = Parse(c.String())
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Parse is deterministic.
func TestQuickParseDeterministic(t *testing.T) {
	f := func(input string) bool {
		c1, err1 := Parse(input)
		c2, err2 := Parse(input)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return reflect.DeepEqual(c1, c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// FuzzParseSet holds the parser to its canonical text: for every constraint
// c of a set ParseSet accepts, Parse(c.String()) returns c itself. The text
// is therefore injective, so two different sets never share the canonical
// form that result-cache and pipeline keys are built from. The seeds in
// testdata/fuzz/FuzzParseSet cover the grammar of Parse's doc comment,
// quoted names that hold commas, colons or nothing, and exponent
// thresholds.
func FuzzParseSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		set, err := ParseSet(text)
		if err != nil {
			return
		}
		for _, c := range set.All() {
			back, err := Parse(c.String())
			if err != nil {
				t.Fatalf("%#v renders as %q, which does not parse: %v", c, c.String(), err)
			}
			if !reflect.DeepEqual(back, c) {
				t.Fatalf("%q parses back as %#v, want %#v", c.String(), back, c)
			}
		}
	})
}
