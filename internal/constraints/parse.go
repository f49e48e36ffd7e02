package constraints

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads one constraint from its textual form. The grammar covers all
// constraint shapes of Tables II and IV:
//
//	|G| <= 3               grouping: at most 3 groups
//	|G| >= 5               grouping: at least 5 groups
//	|g| <= 8               class: at most 8 classes per group
//	cannotlink(a, b)       class: a and b never together
//	mustlink(a, b)         class: a and b always together
//	distinct(class.org) <= 1   class: one origin system per group (BL3, §VI-D)
//	distinct(role) <= 3    instance: at most 3 roles per instance (set A)
//	sum(duration) >= 101   instance: set M
//	avg(duration) <= 5e5   instance: set N
//	min(cost) >= 10        instance
//	max(cost) <= 500       instance
//	count() <= 12          instance: at most 12 events per instance
//	count(rcp) >= 2        instance: at least 2 rcp events per instance
//	gap <= 600             instance: at most 10 min between events
//	eventsperclass <= 1    instance: at most 1 event per class per instance
//	span <= 3600           instance: each instance at most 1 hour
//	avgspan <= 3600        instance: instances at most 1 hour on average
//	pct(0.95, max(cost) <= 500)   loosened instance constraint
//	avginstances >= 2      global: mean activity instances per trace
//	maxinstances <= 6      global: activity instances in any single trace
//
// Class names containing spaces or punctuation can be single-quoted:
// cannotlink('A_Create Application', 'O_Created').
func Parse(s string) (Constraint, error) {
	p := &parser{in: s}
	c, err := p.parseConstraint()
	if err != nil {
		return nil, fmt.Errorf("parse %q: %w", s, err)
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("parse %q: trailing input at offset %d", s, p.pos)
	}
	return c, nil
}

// MustParse is Parse that panics on error, for tests and fixed tables.
func MustParse(s string) Constraint {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// ParseSet parses a whitespace/newline-separated list of constraints, one
// per line; blank lines and lines starting with '#' are skipped.
func ParseSet(text string) (*Set, error) {
	set := &Set{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		c, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		set.Add(c)
	}
	return set, nil
}

type parser struct {
	in  string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && unicode.IsSpace(rune(p.in[p.pos])) {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.in) {
		return p.in[p.pos]
	}
	return 0
}

func (p *parser) expect(b byte) error {
	p.skipSpace()
	if p.peek() != b {
		return fmt.Errorf("expected %q at offset %d", string(b), p.pos)
	}
	p.pos++
	return nil
}

// ident reads a bare word or a single-quoted string.
func (p *parser) ident() (string, error) {
	p.skipSpace()
	if p.peek() == '\'' {
		p.pos++
		start := p.pos
		for p.pos < len(p.in) && p.in[p.pos] != '\'' {
			p.pos++
		}
		if p.pos >= len(p.in) {
			return "", fmt.Errorf("unterminated quoted name at offset %d", start)
		}
		s := p.in[start:p.pos]
		p.pos++
		return s, nil
	}
	start := p.pos
	for p.pos < len(p.in) && identByte(p.in[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("expected identifier at offset %d", start)
	}
	return p.in[start:p.pos], nil
}

// identByte reports whether b may appear in a bare word.
func identByte(b byte) bool {
	c := rune(b)
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-' || c == '.'
}

// quoteName renders a name so that ident reads it back: bare when it is a
// non-empty bare word, else single-quoted. A name containing a quote has
// no spelling, and the parser never produces one.
func quoteName(name string) string {
	for i := 0; i < len(name); i++ {
		if !identByte(name[i]) {
			return "'" + name + "'"
		}
	}
	if name == "" {
		return "''"
	}
	return name
}

func (p *parser) op() (Op, error) {
	p.skipSpace()
	switch {
	case strings.HasPrefix(p.in[p.pos:], "<="):
		p.pos += 2
		return LE, nil
	case strings.HasPrefix(p.in[p.pos:], ">="):
		p.pos += 2
		return GE, nil
	case strings.HasPrefix(p.in[p.pos:], "=="):
		p.pos += 2
		return EQ, nil
	case p.peek() == '=':
		p.pos++
		return EQ, nil
	case p.peek() == '<':
		p.pos++
		return LT, nil
	case p.peek() == '>':
		p.pos++
		return GT, nil
	}
	return 0, fmt.Errorf("expected comparison operator at offset %d", p.pos)
}

func (p *parser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if p.pos == start {
		return 0, fmt.Errorf("expected number at offset %d", start)
	}
	f, err := strconv.ParseFloat(p.in[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q: %w", p.in[start:p.pos], err)
	}
	return f, nil
}

func (p *parser) intNumber() (int, error) {
	f, err := p.number()
	if err != nil {
		return 0, err
	}
	n := int(f)
	if float64(n) != f {
		return 0, fmt.Errorf("expected integer, got %g", f)
	}
	return n, nil
}

func (p *parser) parseConstraint() (Constraint, error) {
	p.skipSpace()
	if strings.HasPrefix(p.in[p.pos:], "|G|") {
		p.pos += 3
		op, err := p.op()
		if err != nil {
			return nil, err
		}
		n, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		return GroupCount{Op: op, N: n}, nil
	}
	if strings.HasPrefix(p.in[p.pos:], "|g|") {
		p.pos += 3
		op, err := p.op()
		if err != nil {
			return nil, err
		}
		n, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		return GroupSize{Op: op, N: n}, nil
	}
	word, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch strings.ToLower(word) {
	case "cannotlink", "mustlink":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		b, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if strings.ToLower(word) == "cannotlink" {
			return CannotLink{A: a, B: b}, nil
		}
		return MustLink{A: a, B: b}, nil

	case "distinct":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		op, err := p.op()
		if err != nil {
			return nil, err
		}
		n, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		if rest, ok := strings.CutPrefix(attr, "class."); ok {
			return ClassAttrDistinct{Attr: rest, Op: op, N: n}, nil
		}
		return InstanceAggregate{AggFn: Distinct, Attr: attr, Op: op, Threshold: float64(n)}, nil

	case "sum", "avg", "min", "max":
		agg := map[string]Agg{"sum": Sum, "avg": Avg, "min": Min, "max": Max}[strings.ToLower(word)]
		if err := p.expect('('); err != nil {
			return nil, err
		}
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		op, err := p.op()
		if err != nil {
			return nil, err
		}
		th, err := p.number()
		if err != nil {
			return nil, err
		}
		return InstanceAggregate{AggFn: agg, Attr: attr, Op: op, Threshold: th}, nil

	case "count":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		p.skipSpace()
		var class string
		if p.peek() != ')' {
			class, err = p.ident()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		op, err := p.op()
		if err != nil {
			return nil, err
		}
		n, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		if class == "" {
			return InstanceAggregate{AggFn: Count, Op: op, Threshold: float64(n)}, nil
		}
		return ClassCardinality{ClassName: class, Op: op, N: n}, nil

	case "gap":
		op, err := p.op()
		if err != nil {
			return nil, err
		}
		if op != LE && op != LT {
			return nil, fmt.Errorf("gap supports only upper bounds (<=, <)")
		}
		sec, err := p.number()
		if err != nil {
			return nil, err
		}
		return MaxGap{Seconds: sec}, nil

	case "eventsperclass":
		op, err := p.op()
		if err != nil {
			return nil, err
		}
		n, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		return EventsPerClass{Op: op, N: n}, nil

	case "span":
		op, err := p.op()
		if err != nil {
			return nil, err
		}
		sec, err := p.number()
		if err != nil {
			return nil, err
		}
		return InstanceSpan{Op: op, Seconds: sec}, nil

	case "avgspan":
		op, err := p.op()
		if err != nil {
			return nil, err
		}
		sec, err := p.number()
		if err != nil {
			return nil, err
		}
		return AvgInstanceSpan{Op: op, Seconds: sec}, nil

	case "avginstances":
		op, err := p.op()
		if err != nil {
			return nil, err
		}
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		return AvgInstancesPerTrace{Op: op, N: n}, nil

	case "maxinstances":
		op, err := p.op()
		if err != nil {
			return nil, err
		}
		if op != LE && op != LT {
			return nil, fmt.Errorf("maxinstances supports only upper bounds (<=, <)")
		}
		n, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		if op == LT {
			if n == math.MinInt {
				return nil, fmt.Errorf("maxinstances < %d has no integer bound", n)
			}
			n--
		}
		return MaxInstancesPerTrace{N: n}, nil

	case "pct":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		frac, err := p.number()
		if err != nil {
			return nil, err
		}
		if frac < 0 || frac > 1 {
			return nil, fmt.Errorf("pct fraction %g outside [0,1]", frac)
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		inner, err := p.parseConstraint()
		if err != nil {
			return nil, err
		}
		ic, ok := inner.(InstanceConstraint)
		if !ok {
			return nil, fmt.Errorf("pct requires an instance constraint, got %s (%s)", inner, inner.Category())
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return Percentage{Fraction: frac, Inner: ic}, nil
	}
	return nil, fmt.Errorf("unknown constraint %q", word)
}
