// Package eventlog defines the event model of GECCO (§III-A of the paper)
// and the columnar store every inner loop operates on.
//
// The model: events with a class and typed context attributes, traces as
// event sequences, and logs as collections of traces. The Log/Trace/Event
// types remain the public construction and round-tripping API.
//
// The store: an Index interns event classes as dense integers in a flat
// trace-major arena, interns attribute names, and keeps attribute values
// in per-attribute Columns — typed arrays gated by presence bitsets, with
// dictionary-encoded strings — so candidate computation, constraint
// checking, and the Eq. 1 distance never touch a map[string]Value per
// event. An Index is self-contained (log name, trace ids, trace/log
// attributes, ReconstructLog), letting long-lived holders release the
// original log.
//
// Construction and persistence:
//
//   - NewIndex builds an Index from a Log; Builder streams one directly
//     from a loader (xes.ReadIndex, csvlog.ReadIndex) with no intermediate
//     Log.
//   - WriteIndex serialises an Index to the versioned, checksummed binary
//     format specified in docs/FORMAT.md; the encoding is canonical (one
//     index, one byte representation).
//   - ReadIndex, and OpenIndex for a file path, bring one back — every
//     derived structure is stored, nothing is re-parsed or re-built. The
//     file is validated end to end and decoded onto the heap, so the
//     result's reads, and its re-encoding, are byte-identical to the
//     original's.
package eventlog

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the types an attribute value can take.
type Kind int

const (
	KindNone Kind = iota
	KindString
	KindFloat
	KindInt
	KindTime
	KindBool
)

// Value is a typed attribute value. Exactly one of the payload fields is
// meaningful depending on Kind.
type Value struct {
	Kind Kind
	Str  string
	Num  float64 // used for KindFloat and KindInt (integral value)
	Time time.Time
	Bool bool
}

// String builds a string value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Float builds a float value.
func Float(f float64) Value { return Value{Kind: KindFloat, Num: f} }

// Int builds an integer value (stored as float64 payload).
func Int(i int64) Value { return Value{Kind: KindInt, Num: float64(i)} }

// Time builds a timestamp value.
func Time(t time.Time) Value { return Value{Kind: KindTime, Time: t} }

// Bool builds a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// IsNumeric reports whether the value carries a number.
func (v Value) IsNumeric() bool { return v.Kind == KindFloat || v.Kind == KindInt }

// AsString renders the value for use as a categorical key (silently lossy
// for floats, which use the shortest round-trippable decimal form —
// strconv.FormatFloat 'g'/-1, the same text fmt's %g would print, without
// the reflection and interface boxing of Sprintf: this sits on the hot
// categorical-attribute path inside constraint evaluation).
//
// Integer values are rendered in plain decimal via FormatInt: the 'g' form
// switches to exponent notation at 1e21, which would render distinct large
// integers identically (and differently from their decimal wire form),
// splitting and colliding categorical keys. Values whose float64 payload
// falls outside the int64 range cannot be printed digit-exactly anyway and
// keep the float rendering.
func (v Value) AsString() string {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindInt:
		if v.Num >= -9.223372036854775808e18 && v.Num < 9.223372036854775808e18 {
			return strconv.FormatInt(int64(v.Num), 10)
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindFloat:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindTime:
		return v.Time.Format(time.RFC3339)
	case KindBool:
		if v.Bool {
			return "true"
		}
		return "false"
	}
	return ""
}

// Event is a single recorded process step. Class is the event class (the
// paper's e.C); Attrs holds the context attributes (e.D).
type Event struct {
	Class string
	Attrs map[string]Value
}

// Attr returns the value of the named attribute and whether it is present.
func (e *Event) Attr(name string) (Value, bool) {
	v, ok := e.Attrs[name]
	return v, ok
}

// SetAttr sets an attribute, allocating the map if needed.
func (e *Event) SetAttr(name string, v Value) {
	if e.Attrs == nil {
		e.Attrs = make(map[string]Value, 4)
	}
	e.Attrs[name] = v
}

// Timestamp returns the event's "time" attribute, if any.
func (e *Event) Timestamp() (time.Time, bool) {
	v, ok := e.Attrs[AttrTimestamp]
	if !ok || v.Kind != KindTime {
		return time.Time{}, false
	}
	return v.Time, true
}

// Well-known attribute names used across the repository. Logs are free to
// carry arbitrary additional attributes.
const (
	AttrTimestamp = "time"      // event completion timestamp
	AttrRole      = "role"      // executing role (clerk, manager, ...)
	AttrOrg       = "org"       // origin system (case study §VI-D)
	AttrDuration  = "duration"  // event duration in seconds
	AttrCost      = "cost"      // event cost
	AttrLifecycle = "lifecycle" // XES lifecycle:transition (start/complete)
)

// Trace is a single process execution: an ordered sequence of events.
// Attrs holds trace-level context attributes (beyond the identifying
// concept:name, which is ID); abstraction never consults them, but they
// round-trip through the XES reader/writer.
type Trace struct {
	ID     string
	Events []Event
	Attrs  map[string]Value
}

// SetAttr sets a trace-level attribute, allocating the map if needed.
func (t *Trace) SetAttr(name string, v Value) {
	if t.Attrs == nil {
		t.Attrs = make(map[string]Value, 4)
	}
	t.Attrs[name] = v
}

// Variant returns the trace's class sequence joined by ",", identifying its
// control-flow variant.
func (t *Trace) Variant() string {
	var b strings.Builder
	for i := range t.Events {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.Events[i].Class)
	}
	return b.String()
}

// Log is an event log: a named collection of traces. Attrs holds log-level
// attributes (beyond concept:name, which is Name); like trace attributes
// they are carried for round-tripping, not consulted by abstraction.
type Log struct {
	Name   string
	Traces []Trace
	Attrs  map[string]Value
}

// SetAttr sets a log-level attribute, allocating the map if needed.
func (l *Log) SetAttr(name string, v Value) {
	if l.Attrs == nil {
		l.Attrs = make(map[string]Value, 4)
	}
	l.Attrs[name] = v
}

// NumEvents returns the total number of events across all traces.
func (l *Log) NumEvents() int {
	n := 0
	for i := range l.Traces {
		n += len(l.Traces[i].Events)
	}
	return n
}

// AvgTraceLen returns the mean number of events per trace.
func (l *Log) AvgTraceLen() float64 {
	if len(l.Traces) == 0 {
		return 0
	}
	return float64(l.NumEvents()) / float64(len(l.Traces))
}

// Classes returns the distinct event classes of the log in sorted order.
func (l *Log) Classes() []string {
	seen := make(map[string]struct{})
	for i := range l.Traces {
		for j := range l.Traces[i].Events {
			seen[l.Traces[i].Events[j].Class] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Variants returns the distinct control-flow variants with their trace
// counts.
func (l *Log) Variants() map[string]int {
	out := make(map[string]int)
	for i := range l.Traces {
		out[l.Traces[i].Variant()]++
	}
	return out
}

// Stats summarises a log in the shape of Table III of the paper.
type Stats struct {
	Name        string
	NumClasses  int
	NumTraces   int
	NumVariants int
	NumDFGEdges int
	AvgTraceLen float64
}

// ComputeStats derives the Table III row for the log. The DFG edge count is
// computed from the directly-follows relation (§III-A).
func (l *Log) ComputeStats() Stats {
	edges := make(map[[2]string]struct{})
	for i := range l.Traces {
		ev := l.Traces[i].Events
		for j := 0; j+1 < len(ev); j++ {
			edges[[2]string{ev[j].Class, ev[j+1].Class}] = struct{}{}
		}
	}
	return Stats{
		Name:        l.Name,
		NumClasses:  len(l.Classes()),
		NumTraces:   len(l.Traces),
		NumVariants: len(l.Variants()),
		NumDFGEdges: len(edges),
		AvgTraceLen: l.AvgTraceLen(),
	}
}

// Clone returns a deep copy of the log (events and all attribute maps —
// event-, trace-, and log-level — included).
func (l *Log) Clone() *Log {
	out := &Log{Name: l.Name, Traces: make([]Trace, len(l.Traces)), Attrs: cloneAttrs(l.Attrs)}
	for i := range l.Traces {
		src := &l.Traces[i]
		dst := Trace{ID: src.ID, Events: make([]Event, len(src.Events)), Attrs: cloneAttrs(src.Attrs)}
		for j := range src.Events {
			e := src.Events[j]
			e.Attrs = cloneAttrs(e.Attrs)
			dst.Events[j] = e
		}
		out.Traces[i] = dst
	}
	return out
}

func cloneAttrs(m map[string]Value) map[string]Value {
	if m == nil {
		return nil
	}
	out := make(map[string]Value, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
