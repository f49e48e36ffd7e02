package eventlog

import (
	"sort"
	"time"

	"gecco/internal/bitset"
)

// Builder accumulates a log event by event and produces a columnar Index
// without ever materialising a *Log. Loaders (xes, csvlog, procgen) feed it
// directly; NewIndex feeds it from an existing Log, so there is exactly one
// construction path. The call protocol is
//
//	b := NewBuilder()
//	b.SetName("log")
//	b.StartTrace("case-1")
//	b.AddEvent("a")
//	b.SetEventAttr("role", String("clerk"))
//	...
//	x := b.Build()
//
// Class ids are interned in first-seen order while building and remapped to
// the sorted-name order of Log.Classes at Build time, so the resulting Index
// is identical to NewIndex of the equivalent Log. A Builder is single-use:
// Build may be called once.
type Builder struct {
	name     string
	logAttrs map[string]Value

	classID map[string]uint32 // first-seen interning; remapped in Build
	classes []string

	arena       []uint32
	traceStarts []int
	traceIDs    []string
	traceAttrs  []map[string]Value

	cols  []*colBuilder
	colID map[string]int
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		classID: make(map[string]uint32),
		colID:   make(map[string]int),
	}
}

// SetName sets the log name carried by the Index.
func (b *Builder) SetName(name string) { b.name = name }

// SetLogAttr records a log-level attribute (round-tripping only; abstraction
// never consults it).
func (b *Builder) SetLogAttr(name string, v Value) {
	if b.logAttrs == nil {
		b.logAttrs = make(map[string]Value, 4)
	}
	b.logAttrs[name] = v
}

// StartTrace begins a new trace; subsequent AddEvent calls append to it.
func (b *Builder) StartTrace(id string) {
	b.traceStarts = append(b.traceStarts, len(b.arena))
	b.traceIDs = append(b.traceIDs, id)
	b.traceAttrs = append(b.traceAttrs, nil)
}

// SetTraceID replaces the current trace's identifier, for loaders that
// learn it only after the trace's events: XES allows a trace's
// concept:name anywhere among its children.
func (b *Builder) SetTraceID(id string) {
	t := len(b.traceIDs) - 1
	if t < 0 {
		panic("eventlog: SetTraceID before StartTrace")
	}
	b.traceIDs[t] = id
}

// SetTraceAttr records a trace-level attribute on the current trace.
func (b *Builder) SetTraceAttr(name string, v Value) {
	t := len(b.traceAttrs) - 1
	if t < 0 {
		panic("eventlog: SetTraceAttr before StartTrace")
	}
	if b.traceAttrs[t] == nil {
		b.traceAttrs[t] = make(map[string]Value, 4)
	}
	b.traceAttrs[t][name] = v
}

// AddEvent appends an event of the given class to the current trace.
func (b *Builder) AddEvent(class string) {
	if len(b.traceStarts) == 0 {
		panic("eventlog: AddEvent before StartTrace")
	}
	id, ok := b.classID[class]
	if !ok {
		id = uint32(len(b.classes))
		b.classID[class] = id
		b.classes = append(b.classes, class)
	}
	b.arena = append(b.arena, id)
}

// SetEventAttr records an attribute on the most recently added event.
// Setting the same attribute twice overwrites, like a map store.
func (b *Builder) SetEventAttr(name string, v Value) {
	pos := len(b.arena) - 1
	if pos < 0 {
		panic("eventlog: SetEventAttr before AddEvent")
	}
	ci, ok := b.colID[name]
	if !ok {
		ci = len(b.cols)
		b.colID[name] = ci
		b.cols = append(b.cols, &colBuilder{name: name, kind: v.Kind, first: true})
	}
	b.cols[ci].set(pos, v)
}

// Build finalises the columnar Index. Class ids are remapped to sorted-name
// order, per-class structures and the variant compaction are computed in one
// arena pass, and the attribute columns are sealed.
func (b *Builder) Build() *Index {
	classes := append([]string(nil), b.classes...)
	sort.Strings(classes)
	id := make(map[string]int, len(classes))
	for i, c := range classes {
		id[c] = i
	}
	remap := make([]uint32, len(b.classes))
	for provisional, name := range b.classes {
		remap[provisional] = uint32(id[name])
	}
	for i, c := range b.arena {
		b.arena[i] = remap[c]
	}

	numTraces := len(b.traceStarts)
	x := &Index{
		Name:        b.name,
		Classes:     classes,
		ClassID:     id,
		ClassTraces: make([]bitset.Set, len(classes)),
		ClassFreq:   make([]int, len(classes)),

		arena:      b.arena,
		traceOff:   append(b.traceStarts, len(b.arena)),
		traceIDs:   b.traceIDs,
		traceAttrs: b.traceAttrs,
		logAttrs:   b.logAttrs,

		TraceVariant: make([]int, numTraces),

		colID: b.colID,
		cols:  make([]*Column, len(b.cols)),
	}
	for c := range classes {
		x.ClassTraces[c] = bitset.New(numTraces)
	}
	// Variant compaction. The key encodes each class id in full width (4
	// bytes): an earlier 2-byte encoding silently merged distinct variants
	// on logs with more than 65535 classes.
	variantID := make(map[string]int)
	x.variantOff = append(x.variantOff, 0)
	var key []byte
	for t := 0; t < numTraces; t++ {
		seq := x.Seq(t)
		key = key[:0]
		for _, c := range seq {
			x.ClassTraces[c].Add(t)
			x.ClassFreq[c]++
			key = append(key, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		v, ok := variantID[string(key)]
		if !ok {
			v = len(x.VariantCount)
			variantID[string(key)] = v
			x.variantArena = append(x.variantArena, seq...)
			x.variantOff = append(x.variantOff, len(x.variantArena))
			x.VariantCount = append(x.VariantCount, 0)
			present := bitset.New(len(classes))
			for _, c := range seq {
				present.Add(int(c))
			}
			x.VariantClasses = append(x.VariantClasses, present)
		}
		x.VariantCount[v]++
		x.TraceVariant[t] = v
	}
	for i, cb := range b.cols {
		x.cols[i] = cb.finish()
	}
	b.cols, b.arena = nil, nil // single-use; free the builder's references
	return x
}

// colBuilder grows one attribute column as events stream in. Payload arrays
// are extended lazily to the highest position written; absent positions in
// between stay zero and are gated out by the presence bitset (grown in
// place via bitset.GrowAdd, since the event count is unknown until Build).
type colBuilder struct {
	name    string
	present bitset.Set
	kind    Kind
	first   bool // no value stored yet (kind not authoritative)
	kinds   []uint8
	codes   []uint32
	dictID  map[string]uint32
	dict    []string
	nums    []float64
	times   []time.Time
	bools   bitset.Set
}

func (c *colBuilder) set(pos int, v Value) {
	if c.first {
		c.kind, c.first = v.Kind, false
	} else if v.Kind != c.kind && c.kinds == nil {
		// The column just became mixed-kind: materialise the per-event kind
		// array and backfill the uniform kind for every position stored so
		// far (all of which are <= pos, since positions only grow).
		c.kinds = make([]uint8, pos+1)
		c.present.ForEach(func(p int) bool {
			c.kinds[p] = uint8(c.kind)
			return true
		})
	}
	c.present.GrowAdd(pos)
	if c.kinds != nil {
		for len(c.kinds) <= pos {
			c.kinds = append(c.kinds, 0)
		}
		c.kinds[pos] = uint8(v.Kind)
	}
	switch v.Kind {
	case KindString:
		if c.dictID == nil {
			c.dictID = make(map[string]uint32)
		}
		code, ok := c.dictID[v.Str]
		if !ok {
			code = uint32(len(c.dict))
			c.dictID[v.Str] = code
			c.dict = append(c.dict, v.Str)
		}
		for len(c.codes) <= pos {
			c.codes = append(c.codes, 0)
		}
		c.codes[pos] = code
	case KindFloat, KindInt:
		for len(c.nums) <= pos {
			c.nums = append(c.nums, 0)
		}
		c.nums[pos] = v.Num
	case KindTime:
		for len(c.times) <= pos {
			c.times = append(c.times, time.Time{})
		}
		c.times[pos] = v.Time
	case KindBool:
		if v.Bool {
			c.bools.GrowAdd(pos)
		} else {
			c.bools.Remove(pos) // overwrite: false replaces true
		}
	}
}

// finish seals the builder into an immutable Column. Mixed columns resolve
// per-event kinds through the kinds array; uniform ones record the single
// kind and pay no per-event byte. (A column mixing KindInt and KindFloat is
// mixed-kind like any other combination; both share the nums payload array.)
func (c *colBuilder) finish() *Column {
	kind := c.kind
	if c.kinds != nil {
		kind = KindNone
	}
	return &Column{
		name:    c.name,
		present: c.present,
		kind:    kind,
		kinds:   c.kinds,
		codes:   c.codes,
		dict:    c.dict,
		nums:    c.nums,
		times:   c.times,
		bools:   c.bools,
	}
}
