// On-disk index IO: WriteIndex serialises an Index into the versioned,
// segment-table binary format specified in docs/FORMAT.md; ReadIndex (and
// OpenIndex, its file wrapper) brings one back. The format stores every
// derived structure (variant compaction, per-class bitsets, dictionaries),
// so opening is IO, validation and a linear decode into the typed arrays a
// Builder produces — no re-parsing, no re-building.
//
// Decoding never trusts the file: every segment is CRC-checked, every
// allocation is bounded by its segment's length, and a structural
// validation pass guarantees that no accessor can index out of bounds — a
// corrupt or truncated file yields a clean error (ErrBadMagic, ErrVersion,
// or ErrCorrupt), never a panic.

package eventlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"time"

	"gecco/internal/bitset"
)

// Sentinel errors returned (wrapped) by ReadIndex and OpenIndex.
var (
	ErrBadMagic = errors.New("eventlog: not a gecco index file")
	ErrVersion  = errors.New("eventlog: unsupported index version")
	ErrCorrupt  = errors.New("eventlog: corrupt index file")
)

func corruptf(format string, args ...any) error {
	return errorfWrap(ErrCorrupt, format, args...)
}

func errorfWrap(sentinel error, format string, args ...any) error {
	return fmt.Errorf("%w: %s", sentinel, fmt.Sprintf(format, args...))
}

// metaCountLimit caps the element counts a file header may declare, guarding
// the int casts below on hostile input (real counts are nowhere close).
const metaCountLimit = 1 << 40

// --- encoding ---

// enc is an append-only little-endian byte builder.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) str(s string) { e.u32(uint32(len(s))); e.b = append(e.b, s...) }

// segment is one encoded segment awaiting layout.
type segment struct {
	kind    uint32
	id      uint32
	payload []byte
}

// WriteIndex serialises x to w in the format documented in docs/FORMAT.md.
// The encoding is canonical: the same Index always produces the same bytes
// (attribute maps are written key-sorted, columns name-sorted), and writing
// an Index opened from a file reproduces that file byte for byte.
func WriteIndex(w io.Writer, x *Index) error {
	segs := encodeSegments(x)

	off := headerSize + len(segs)*segEntrySize
	offs := make([]int, len(segs))
	for i := range segs {
		offs[i] = off
		off += len(segs[i].payload)
		off = (off + segAlign - 1) &^ (segAlign - 1)
	}
	fileSize := off

	hdr := &enc{b: make([]byte, 0, headerSize+len(segs)*segEntrySize)}
	hdr.b = append(hdr.b, IndexMagic...)
	hdr.u32(IndexVersion)
	hdr.u32(0) // flags
	hdr.u32(uint32(len(segs)))
	hdr.u32(0) // reserved
	hdr.u64(uint64(headerSize))
	hdr.u64(uint64(fileSize))
	for i := range segs {
		s := &segs[i]
		hdr.u32(s.kind)
		hdr.u32(s.id)
		hdr.u64(uint64(offs[i]))
		hdr.u64(uint64(len(s.payload)))
		hdr.u32(crc32.ChecksumIEEE(s.payload))
		hdr.u32(0) // pad
	}
	if _, err := w.Write(hdr.b); err != nil {
		return err
	}
	var pad [segAlign]byte
	for i := range segs {
		if _, err := w.Write(segs[i].payload); err != nil {
			return err
		}
		end := offs[i] + len(segs[i].payload)
		next := fileSize
		if i+1 < len(segs) {
			next = offs[i+1]
		}
		if n := next - end; n > 0 {
			if _, err := w.Write(pad[:n]); err != nil {
				return err
			}
		}
	}
	return nil
}

func encodeSegments(x *Index) []segment {
	var segs []segment
	add := func(kind, id uint32, payload []byte) {
		segs = append(segs, segment{kind: kind, id: id, payload: payload})
	}

	meta := &enc{}
	meta.str(x.Name)
	meta.u64(uint64(x.NumTraces()))
	meta.u64(uint64(x.NumEvents()))
	meta.u64(uint64(x.NumClasses()))
	meta.u64(uint64(x.NumVariants()))
	meta.u64(uint64(len(x.cols)))
	add(segMeta, 0, meta.b)

	add(segClasses, 0, encodeStringTable(x.Classes))
	add(segClassTraces, 0, encodeBitsetList(x.ClassTraces))
	add(segClassFreq, 0, encodeU64Ints(x.ClassFreq))
	add(segArena, 0, encodeU32s(x.arena))
	add(segTraceOff, 0, encodeU64Ints(x.traceOff))
	add(segTraceIDs, 0, encodeStringTable(x.traceIDs))
	add(segTraceVariant, 0, encodeU32Ints(x.TraceVariant))
	add(segVariantCount, 0, encodeU64Ints(x.VariantCount))
	add(segVariantArena, 0, encodeU32s(x.variantArena))
	add(segVariantOff, 0, encodeU64Ints(x.variantOff))
	add(segVariantClasses, 0, encodeBitsetList(x.VariantClasses))
	add(segLogAttrs, 0, encodeAttrMap(x.logAttrs))
	add(segTraceAttrs, 0, encodeAttrMaps(x.traceAttrs))

	// Columns are written sorted by attribute name so the encoding does not
	// depend on builder insertion order (which follows map iteration in
	// NewIndex). The sort works on an index permutation: x is immutable and
	// may be read concurrently.
	order := make([]int, len(x.cols))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return x.cols[order[a]].name < x.cols[order[b]].name })
	for i, ci := range order {
		c := x.cols[ci]
		id := uint32(i)
		cm := &enc{}
		cm.str(c.name)
		cm.u8(uint8(c.kind))
		cm.u8(0)
		cm.u8(0)
		cm.u8(0)
		add(segColMeta, id, cm.b)
		add(segColPresent, id, encodeWords(c.present.Words()))
		if len(c.kinds) > 0 {
			add(segColKinds, id, c.kinds)
		}
		if len(c.codes) > 0 {
			add(segColCodes, id, encodeU32s(c.codes))
		}
		if len(c.dict) > 0 {
			add(segColDict, id, encodeStringTable(c.dict))
		}
		if len(c.nums) > 0 {
			add(segColNums, id, encodeF64s(c.nums))
		}
		if len(c.times) > 0 {
			add(segColTimes, id, encodeTimes(c.times))
		}
		if w := c.bools.Words(); len(w) > 0 {
			add(segColBools, id, encodeWords(w))
		}
	}
	return segs
}

func encodeStringTable(ss []string) []byte {
	e := &enc{}
	e.u32(uint32(len(ss)))
	off := uint32(0)
	e.u32(0)
	for _, s := range ss {
		off += uint32(len(s))
		e.u32(off)
	}
	for _, s := range ss {
		e.b = append(e.b, s...)
	}
	return e.b
}

func encodeWords(ws []uint64) []byte {
	e := &enc{b: make([]byte, 0, len(ws)*8)}
	for _, w := range ws {
		e.u64(w)
	}
	return e.b
}

func encodeBitsetList(sets []bitset.Set) []byte {
	e := &enc{}
	e.u32(uint32(len(sets)))
	for _, s := range sets {
		ws := s.Words()
		e.u32(uint32(len(ws)))
		for _, w := range ws {
			e.u64(w)
		}
	}
	return e.b
}

func encodeU64Ints(vs []int) []byte {
	e := &enc{b: make([]byte, 0, len(vs)*8)}
	for _, v := range vs {
		e.u64(uint64(v))
	}
	return e.b
}

func encodeU32Ints(vs []int) []byte {
	e := &enc{b: make([]byte, 0, len(vs)*4)}
	for _, v := range vs {
		e.u32(uint32(v))
	}
	return e.b
}

func encodeU32s(vs []uint32) []byte {
	e := &enc{b: make([]byte, 0, len(vs)*4)}
	for _, v := range vs {
		e.u32(v)
	}
	return e.b
}

func encodeAttrMap(m map[string]Value) []byte {
	e := &enc{}
	appendAttrMap(e, m)
	return e.b
}

func encodeAttrMaps(ms []map[string]Value) []byte {
	e := &enc{}
	for _, m := range ms {
		appendAttrMap(e, m)
	}
	return e.b
}

func appendAttrMap(e *enc, m map[string]Value) {
	if m == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u32(uint32(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.str(k)
		appendValue(e, m[k])
	}
}

func appendValue(e *enc, v Value) {
	e.u8(uint8(v.Kind))
	switch v.Kind {
	case KindString:
		e.str(v.Str)
	case KindFloat, KindInt:
		e.u64(math.Float64bits(v.Num))
	case KindTime:
		appendTime(e, v.Time)
	case KindBool:
		if v.Bool {
			e.u8(1)
		} else {
			e.u8(0)
		}
	}
}

// appendTime encodes a timestamp as its 16-byte record: unix seconds (i64),
// nanoseconds (u32), and the fixed zone offset in seconds east of UTC (i32).
// That triple determines both the instant and its RFC3339 rendering, so the
// round-trip is byte-identical through the XES writer; zone names are
// deliberately dropped.
func appendTime(e *enc, t time.Time) {
	e.u64(uint64(t.Unix()))
	e.u32(uint32(t.Nanosecond()))
	_, off := t.Zone()
	e.u32(uint32(int32(off)))
}

func encodeF64s(vs []float64) []byte {
	e := &enc{b: make([]byte, 0, len(vs)*8)}
	for _, v := range vs {
		e.u64(math.Float64bits(v))
	}
	return e.b
}

func encodeTimes(ts []time.Time) []byte {
	e := &enc{b: make([]byte, 0, len(ts)*16)}
	for _, t := range ts {
		appendTime(e, t)
	}
	return e.b
}
