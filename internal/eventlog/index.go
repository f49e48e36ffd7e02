package eventlog

import (
	"sort"

	"gecco/internal/bitset"
)

// Index is the columnar, self-contained store GECCO's inner loops operate
// on. Event classes are interned as dense ids; every event's class id lives
// in one flat trace-major arena addressed through per-trace offsets, and the
// distinct control-flow variants live in a second arena. Event attributes
// are held in per-attribute Columns (typed arrays + presence bitsets, with
// dictionary-encoded strings), so constraint evaluation reads small-int
// columns instead of hashing a map[string]Value per event.
//
// An Index carries everything abstraction and serialisation need — log
// name, trace ids, trace- and log-level attributes — so holders (notably
// core.Session and the serving layer's session LRU) can release the
// pointer-heavy *Log it was built from; ReconstructLog materialises an
// equivalent Log on demand. Build one with NewIndex or stream one with
// Builder; an Index is immutable afterwards and safe for concurrent use.
type Index struct {
	Name    string         // log name (Log.Name carry-over)
	Classes []string       // id -> class name, sorted
	ClassID map[string]int // class name -> id

	// ClassTraces[c] is the set of trace indices containing class c, used
	// for the occurs() co-occurrence check of Algorithms 1 and 2.
	ClassTraces []bitset.Set

	// ClassFreq[c] is the total number of events of class c.
	ClassFreq []int

	// Variant compaction: VariantCount holds each distinct class-id
	// sequence's trace multiplicity and TraceVariant maps each trace to its
	// variant. Computations that depend only on control flow (notably the
	// distance measure) iterate variants instead of traces, which is a large
	// win on logs with few variants. The sequences themselves live in
	// variantArena, exposed through VariantSeq.
	VariantCount []int
	TraceVariant []int

	// VariantClasses[v] is the set of class ids occurring in variant v.
	VariantClasses []bitset.Set

	// arena[traceOff[t]+j] is the class id of the j-th event of trace t;
	// traceOff has one extra trailing entry so Seq is a two-load slice.
	arena    []uint32
	traceOff []int

	variantArena []uint32
	variantOff   []int

	traceIDs   []string
	traceAttrs []map[string]Value // round-tripping only; nil when absent
	logAttrs   map[string]Value

	cols  []*Column
	colID map[string]int
}

// NewIndex builds an Index for the log by feeding a Builder — the same
// construction path the streaming loaders use.
func NewIndex(l *Log) *Index {
	b := NewBuilder()
	b.SetName(l.Name)
	for name, v := range l.Attrs {
		b.SetLogAttr(name, v)
	}
	for t := range l.Traces {
		tr := &l.Traces[t]
		b.StartTrace(tr.ID)
		for name, v := range tr.Attrs {
			b.SetTraceAttr(name, v)
		}
		for j := range tr.Events {
			ev := &tr.Events[j]
			b.AddEvent(ev.Class)
			for name, v := range ev.Attrs {
				b.SetEventAttr(name, v)
			}
		}
	}
	return b.Build()
}

// NumClasses returns the size of the class universe.
func (x *Index) NumClasses() int { return len(x.Classes) }

// NumTraces returns the number of traces.
func (x *Index) NumTraces() int { return len(x.traceIDs) }

// NumEvents returns the total number of events.
func (x *Index) NumEvents() int { return len(x.arena) }

// NumVariants returns the number of distinct control-flow variants.
func (x *Index) NumVariants() int { return len(x.VariantCount) }

// Seq returns trace t's class-id sequence: a view into the shared arena that
// must not be modified.
func (x *Index) Seq(t int) []uint32 { return x.arena[x.traceOff[t]:x.traceOff[t+1]] }

// TraceStart returns the global event position of trace t's first event;
// global positions address the attribute Columns.
func (x *Index) TraceStart(t int) int { return x.traceOff[t] }

// TraceLen returns the number of events of trace t.
func (x *Index) TraceLen(t int) int { return x.traceOff[t+1] - x.traceOff[t] }

// TraceID returns trace t's identifier (XES concept:name).
func (x *Index) TraceID(t int) string { return x.traceIDs[t] }

// VariantSeq returns variant v's class-id sequence: a view into the shared
// variant arena that must not be modified.
func (x *Index) VariantSeq(v int) []uint32 {
	return x.variantArena[x.variantOff[v]:x.variantOff[v+1]]
}

// Column returns the column of the named attribute, or nil when no event
// carries it.
func (x *Index) Column(attr string) *Column {
	if i, ok := x.colID[attr]; ok {
		return x.cols[i]
	}
	return nil
}

// Columns returns every event-attribute column in first-seen order. The
// returned slice and the columns it holds are shared with the index and must
// not be modified.
func (x *Index) Columns() []*Column { return x.cols }

// ColumnsByName returns every event-attribute column in name order, the
// order in which the *Log writers and LogDigest visit an event's attribute
// keys. The slice is the caller's; the columns are shared with the index.
func (x *Index) ColumnsByName() []*Column {
	cols := append([]*Column(nil), x.cols...)
	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	return cols
}

// TraceAttrs returns trace t's trace-level attributes, or nil when it has
// none. The map is shared with the index and must not be modified.
func (x *Index) TraceAttrs(t int) map[string]Value {
	if x.traceAttrs == nil {
		return nil
	}
	return x.traceAttrs[t]
}

// LogAttrs returns the log-level attributes, or nil when there are none. The
// map is shared with the index and must not be modified.
func (x *Index) LogAttrs() map[string]Value { return x.logAttrs }

// Occurs reports whether all classes of g co-occur in at least one trace
// (the occurs(g, L) predicate of Algorithms 1 and 2).
func (x *Index) Occurs(g bitset.Set) bool {
	first := g.Min()
	if first < 0 {
		return false
	}
	acc := x.ClassTraces[first].Clone()
	ok := !acc.IsEmpty()
	g.ForEach(func(c int) bool {
		if c == first {
			return true
		}
		ok = acc.AndInto(x.ClassTraces[c])
		return ok
	})
	return ok
}

// CoTraces returns the set of trace indices in which all classes of g occur.
func (x *Index) CoTraces(g bitset.Set) bitset.Set {
	first := g.Min()
	if first < 0 {
		return bitset.New(x.NumTraces())
	}
	acc := x.ClassTraces[first].Clone()
	g.ForEach(func(c int) bool {
		if c == first {
			return true
		}
		return acc.AndInto(x.ClassTraces[c])
	})
	return acc
}

// AnyTraces returns the set of trace indices in which at least one class of
// g occurs; these are the traces that can contain instances of g.
func (x *Index) AnyTraces(g bitset.Set) bitset.Set {
	acc := bitset.New(x.NumTraces())
	g.ForEach(func(c int) bool {
		acc.OrInto(x.ClassTraces[c])
		return true
	})
	return acc
}

// GroupNames maps a class-id set to the sorted class names it contains.
func (x *Index) GroupNames(g bitset.Set) []string {
	out := make([]string, 0, g.Len())
	g.ForEach(func(c int) bool {
		out = append(out, x.Classes[c])
		return true
	})
	return out
}

// GroupFromNames builds a class-id set from class names; unknown names are
// ignored and reported via the second return value.
func (x *Index) GroupFromNames(names []string) (bitset.Set, []string) {
	g := bitset.New(x.NumClasses())
	var unknown []string
	for _, n := range names {
		if id, ok := x.ClassID[n]; ok {
			g.Add(id)
		} else {
			unknown = append(unknown, n)
		}
	}
	return g, unknown
}

// ClassAttrValues returns, for each class id, the set of distinct values of
// the named attribute over that class's events (the class-level attribute
// view used by class-based constraints such as |g.origin| <= 1). It scans
// the attribute's column — presence bitset plus typed payload arrays —
// instead of probing a per-event attribute map; for string attributes the
// keys come straight out of the dictionary, with no formatting.
func (x *Index) ClassAttrValues(attr string) []map[string]struct{} {
	out := make([]map[string]struct{}, x.NumClasses())
	for c := range out {
		out[c] = make(map[string]struct{})
	}
	col := x.Column(attr)
	if col == nil {
		return out
	}
	if col.StringsOnly() {
		// Dedupe on (class, code) pairs so each distinct string is hashed
		// into the result map once per class, not once per event.
		seen := make(map[uint64]struct{})
		col.present.ForEach(func(pos int) bool {
			code := col.codes[pos]
			k := uint64(x.arena[pos])<<32 | uint64(code)
			if _, ok := seen[k]; !ok {
				seen[k] = struct{}{}
				out[x.arena[pos]][col.dict[code]] = struct{}{}
			}
			return true
		})
		return out
	}
	col.present.ForEach(func(pos int) bool {
		if key, ok := col.Key(pos); ok {
			out[x.arena[pos]][key] = struct{}{}
		}
		return true
	})
	return out
}

// ReconstructLog materialises a Log equivalent to the one the Index was
// built from: same name, trace ids, event order, classes, and attribute
// values at every level, so it serialises byte-identically. The library
// entry points use it to hand their callers a *Log; holders that only
// serialise an Index write it with xes.WriteIndex or csvlog.WriteIndex.
func (x *Index) ReconstructLog() *Log {
	log := &Log{Name: x.Name, Attrs: cloneAttrs(x.logAttrs)}
	log.Traces = make([]Trace, x.NumTraces())
	for t := range log.Traces {
		n := x.TraceLen(t)
		tr := Trace{ID: x.traceIDs[t], Events: make([]Event, n), Attrs: cloneAttrs(x.traceAttrs[t])}
		base := x.traceOff[t]
		for j := 0; j < n; j++ {
			ev := &tr.Events[j]
			ev.Class = x.Classes[x.arena[base+j]]
			for _, col := range x.cols {
				if v, ok := col.Value(base + j); ok {
					ev.SetAttr(col.name, v)
				}
			}
		}
		log.Traces[t] = tr
	}
	return log
}

// EstimatedBytes returns the Index's approximate heap footprint: arenas,
// offset tables, per-class bitsets, and attribute columns with their
// dictionaries. Surfaced on /stats so operators can see what the session
// LRU pins.
func (x *Index) EstimatedBytes() int64 {
	n := len(x.arena)*4 + len(x.variantArena)*4 +
		len(x.traceOff)*8 + len(x.variantOff)*8 +
		len(x.ClassFreq)*8 + len(x.TraceVariant)*8 + len(x.VariantCount)*8
	for _, s := range x.Classes {
		n += 2 * (16 + len(s)) // Classes + the ClassID key
	}
	n += len(x.Classes) * 8 // ClassID values (approximate map payload)
	for _, s := range x.traceIDs {
		n += 16 + len(s)
	}
	for _, b := range x.ClassTraces {
		n += b.Bytes()
	}
	for _, b := range x.VariantClasses {
		n += b.Bytes()
	}
	for _, m := range x.traceAttrs {
		n += attrMapBytes(m)
	}
	n += attrMapBytes(x.logAttrs)
	for _, col := range x.cols {
		n += col.estimatedBytes()
	}
	return int64(n)
}

// attrMapBytes estimates the footprint of one attribute map using the same
// per-entry model as EstimateLogBytes.
func attrMapBytes(m map[string]Value) int {
	if m == nil {
		return 0
	}
	n := mapBaseBytes
	for k := range m {
		n += mapEntryOverheadBytes + 16 + len(k) + valueBytes
	}
	return n
}

// Rough per-allocation constants for the memory model shared by
// EstimatedBytes and EstimateLogBytes: a Go map header plus bucket
// amortisation, per-entry bucket overhead, and the size of a Value struct
// (kind + string header + float + time.Time + bool, padded).
const (
	mapBaseBytes          = 48
	mapEntryOverheadBytes = 16
	valueBytes            = 64
)

// EstimateLogBytes estimates the heap footprint of a pointer-heavy *Log:
// trace and event structs, class string headers, and one map[string]Value
// per attributed event. It uses the same allocation model as
// Index.EstimatedBytes, so the two are comparable; gecco-bench reports the
// ratio as the columnar layout's bytes-per-event improvement.
func EstimateLogBytes(l *Log) int64 {
	n := 16 + len(l.Name) + attrMapBytes(l.Attrs)
	for t := range l.Traces {
		tr := &l.Traces[t]
		n += 64 + len(tr.ID) + attrMapBytes(tr.Attrs) // Trace struct + slice headers
		for j := range tr.Events {
			ev := &tr.Events[j]
			n += 24 + len(ev.Class) // Event struct: string header + map pointer
			n += attrMapBytes(ev.Attrs)
		}
	}
	return int64(n)
}
