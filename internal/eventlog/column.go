package eventlog

import (
	"strconv"
	"time"

	"gecco/internal/bitset"
)

// Column is the columnar store of one attribute across every event of an
// indexed log, addressed by global event position (trace-major, the same
// numbering as the class-id arena). Values are held in typed arrays gated by
// a presence bitset; string values are dictionary-encoded so categorical
// reads compare small integer codes instead of hashing strings. Columns are
// immutable after Build (or ReadIndex) and safe for concurrent reads.
type Column struct {
	name    string
	present bitset.Set // global positions carrying the attribute

	// kind is the column's uniform value kind; KindNone marks a mixed-kind
	// column, in which case kinds holds the per-event kind. Uniform columns
	// (the overwhelmingly common case) pay no per-event kind byte.
	kind  Kind
	kinds []uint8

	// codes/dict hold dictionary-encoded strings; nums carries both
	// KindFloat and KindInt payloads (which of the two a position holds is
	// answered by kind/kinds, since any mix forces the mixed-kind path).
	codes []uint32
	dict  []string
	nums  []float64
	times []time.Time
	bools bitset.Set
}

// Name returns the attribute name the column stores.
func (c *Column) Name() string { return c.name }

// Has reports whether the event at global position pos carries the attribute.
func (c *Column) Has(pos int) bool { return c.present.Contains(pos) }

// KindAt returns the value kind at pos, or KindNone when absent. (A present
// KindNone value — a zero Value stored as an attribute — is reported as
// absent here but still reconstructed by Value.)
func (c *Column) KindAt(pos int) Kind {
	if !c.present.Contains(pos) {
		return KindNone
	}
	return c.kindAt(pos)
}

// kindAt returns the stored kind assuming pos is present.
//
//gecco:hotpath
func (c *Column) kindAt(pos int) Kind {
	if c.kinds != nil {
		return Kind(c.kinds[pos])
	}
	return c.kind
}

// StringsOnly reports whether every value in the column is a string, in
// which case dictionary codes are a bijection onto the distinct AsString
// keys and categorical reads can work on codes alone.
func (c *Column) StringsOnly() bool { return c.kind == KindString && c.kinds == nil }

// NumCodes returns the size of the string dictionary.
func (c *Column) NumCodes() int { return len(c.dict) }

// Code returns the dictionary code of the string value at pos; ok is false
// when the attribute is absent or not string-valued there.
func (c *Column) Code(pos int) (uint32, bool) {
	if !c.present.Contains(pos) || c.kindAt(pos) != KindString {
		return 0, false
	}
	return c.codes[pos], true
}

// Num returns the numeric payload at pos; ok is false when the attribute is
// absent or not numeric (KindFloat/KindInt) there.
func (c *Column) Num(pos int) (float64, bool) {
	if !c.present.Contains(pos) {
		return 0, false
	}
	switch c.kindAt(pos) {
	case KindFloat, KindInt:
		return c.nums[pos], true
	}
	return 0, false
}

// Time returns the timestamp at pos; ok is false when the attribute is
// absent or not time-valued there.
func (c *Column) Time(pos int) (time.Time, bool) {
	if !c.present.Contains(pos) || c.kindAt(pos) != KindTime {
		return time.Time{}, false
	}
	return c.times[pos], true
}

// Value reconstructs the typed attribute value at pos, exactly as the
// original Event.Attrs map held it.
func (c *Column) Value(pos int) (Value, bool) {
	if !c.present.Contains(pos) {
		return Value{}, false
	}
	switch c.kindAt(pos) {
	case KindString:
		return Value{Kind: KindString, Str: c.dict[c.codes[pos]]}, true
	case KindFloat:
		return Value{Kind: KindFloat, Num: c.nums[pos]}, true
	case KindInt:
		return Value{Kind: KindInt, Num: c.nums[pos]}, true
	case KindTime:
		return Value{Kind: KindTime, Time: c.times[pos]}, true
	case KindBool:
		return Value{Kind: KindBool, Bool: c.bools.Contains(pos)}, true
	}
	return Value{}, true // a stored zero Value
}

// Key returns the categorical key of the value at pos — the same text
// Value.AsString would produce — without materialising a Value. For string
// values this is a dictionary lookup, no formatting or allocation.
func (c *Column) Key(pos int) (string, bool) {
	if !c.present.Contains(pos) {
		return "", false
	}
	switch c.kindAt(pos) {
	case KindString:
		return c.dict[c.codes[pos]], true
	case KindInt:
		return Value{Kind: KindInt, Num: c.nums[pos]}.AsString(), true
	case KindFloat:
		return strconv.FormatFloat(c.nums[pos], 'g', -1, 64), true
	case KindTime:
		return c.times[pos].Format(time.RFC3339), true
	case KindBool:
		if c.bools.Contains(pos) {
			return "true", true
		}
		return "false", true
	}
	return "", true
}

// estimatedBytes returns the column's approximate heap footprint.
func (c *Column) estimatedBytes() int {
	n := len(c.name) + 16 +
		c.present.Bytes() + c.bools.Bytes() +
		len(c.kinds) +
		len(c.codes)*4 +
		len(c.nums)*8 +
		len(c.times)*24
	for _, s := range c.dict {
		n += 16 + len(s)
	}
	return n
}
