package eventlog

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"gecco/internal/bitset"
)

// OpenIndex reads the index file at path, written by WriteIndex, through
// ReadIndex. The returned Index is validated end to end, holds no reference
// to the file, and is safe for concurrent use.
func OpenIndex(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadIndex(f, fi.Size())
}

// ReadIndex decodes an index of size bytes from r. The whole file is loaded,
// validated, and decoded into the same heap structures a Builder produces.
func ReadIndex(r io.ReaderAt, size int64) (*Index, error) {
	if size < 0 || size != int64(int(size)) {
		return nil, corruptf("implausible file size %d", size)
	}
	data := make([]byte, size)
	if _, err := r.ReadAt(data, 0); err != nil && !(err == io.EOF && size == 0) {
		return nil, err
	}
	return decodeIndex(data)
}

// cursor is a bounds-checked little-endian reader over one segment payload.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) take(n int) ([]byte, bool) {
	if n < 0 || c.remaining() < n {
		return nil, false
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, true
}

func (c *cursor) u8() (uint8, bool) {
	b, ok := c.take(1)
	if !ok {
		return 0, false
	}
	return b[0], true
}

func (c *cursor) u32() (uint32, bool) {
	b, ok := c.take(4)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b), true
}

func (c *cursor) u64() (uint64, bool) {
	b, ok := c.take(8)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b), true
}

func (c *cursor) str() (string, bool) {
	n, ok := c.u32()
	if !ok || int64(n) > int64(c.remaining()) {
		return "", false
	}
	b, ok := c.take(int(n))
	if !ok {
		return "", false
	}
	return string(b), true
}

// segKey addresses one segment: its kind plus, for column segments, the
// column index (0 for whole-index segments).
type segKey struct{ kind, id uint32 }

// parseFile validates the header and segment table, CRC-checks every
// payload, and returns the payload map plus the number of column segments.
func parseFile(data []byte) (map[segKey][]byte, int, error) {
	if len(data) < len(IndexMagic) || string(data[:len(IndexMagic)]) != IndexMagic {
		return nil, 0, ErrBadMagic
	}
	if len(data) < headerSize {
		return nil, 0, corruptf("truncated header: %d bytes", len(data))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != IndexVersion {
		return nil, 0, errorfWrap(ErrVersion, "file is version %d, this reader supports %d", v, IndexVersion)
	}
	if flags := binary.LittleEndian.Uint32(data[12:]); flags != 0 {
		return nil, 0, errorfWrap(ErrVersion, "unknown header flags %#x", flags)
	}
	segCount := int(binary.LittleEndian.Uint32(data[16:]))
	tableOff := binary.LittleEndian.Uint64(data[24:])
	fileSize := binary.LittleEndian.Uint64(data[32:])
	if fileSize != uint64(len(data)) {
		return nil, 0, corruptf("truncated: header declares %d bytes, have %d", fileSize, len(data))
	}
	if tableOff < headerSize || tableOff > uint64(len(data)) ||
		uint64(segCount)*segEntrySize > uint64(len(data))-tableOff {
		return nil, 0, corruptf("segment table out of bounds (off %d, %d entries)", tableOff, segCount)
	}
	segs := make(map[segKey][]byte, segCount)
	nColSegs := 0
	for i := 0; i < segCount; i++ {
		e := data[int(tableOff)+i*segEntrySize:]
		kind := binary.LittleEndian.Uint32(e)
		id := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		sum := binary.LittleEndian.Uint32(e[24:])
		name, known := segmentKindNames[kind]
		if !known {
			return nil, 0, corruptf("unknown segment kind %d", kind)
		}
		if kind < segColMeta && id != 0 {
			return nil, 0, corruptf("segment %s carries column id %d", name, id)
		}
		if off%segAlign != 0 || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, 0, corruptf("segment %s out of bounds (off %d, len %d)", name, off, length)
		}
		payload := data[off : off+length]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, 0, corruptf("segment %s fails its checksum", name)
		}
		key := segKey{kind, id}
		if _, dup := segs[key]; dup {
			return nil, 0, corruptf("duplicate segment %s id %d", name, id)
		}
		segs[key] = payload
		if kind >= segColMeta {
			nColSegs++
		}
	}
	return segs, nColSegs, nil
}

func decodeIndex(data []byte) (*Index, error) {
	segs, nColSegs, err := parseFile(data)
	if err != nil {
		return nil, err
	}
	need := func(kind uint32) ([]byte, error) {
		p, ok := segs[segKey{kind, 0}]
		if !ok {
			return nil, corruptf("missing required segment %s", segmentKindNames[kind])
		}
		return p, nil
	}

	metaB, err := need(segMeta)
	if err != nil {
		return nil, err
	}
	mc := cursor{b: metaB}
	name, ok := mc.str()
	if !ok {
		return nil, corruptf("meta: bad log name")
	}
	var counts [5]int
	for i := range counts {
		v, ok := mc.u64()
		if !ok || v > metaCountLimit {
			return nil, corruptf("meta: bad element counts")
		}
		counts[i] = int(v)
	}
	if mc.remaining() != 0 {
		return nil, corruptf("meta: trailing bytes")
	}
	numTraces, numEvents, numClasses, numVariants, numCols := counts[0], counts[1], counts[2], counts[3], counts[4]

	x := &Index{Name: name}
	if err := decodeControl(x, segs, need, numTraces, numEvents, numClasses, numVariants); err != nil {
		return nil, err
	}
	if err := decodeColumns(x, segs, nColSegs, numCols, numEvents); err != nil {
		return nil, err
	}
	return x, nil
}

// decodeControl fills the whole-index (non-column) structures, validating
// counts and bounds against the meta header so every later access is safe.
func decodeControl(x *Index, segs map[segKey][]byte, need func(uint32) ([]byte, error), numTraces, numEvents, numClasses, numVariants int) error {
	classesB, err := need(segClasses)
	if err != nil {
		return err
	}
	classes, err := decodeStringTable(classesB, "classes")
	if err != nil {
		return err
	}
	if len(classes) != numClasses {
		return corruptf("classes: %d names, meta declares %d", len(classes), numClasses)
	}
	x.Classes = classes
	x.ClassID = make(map[string]int, numClasses)
	for i, c := range classes {
		if i > 0 && classes[i-1] >= c {
			return corruptf("classes: not strictly sorted at %d", i)
		}
		x.ClassID[c] = i
	}

	if x.ClassTraces, err = decodeBitsetListSeg(need, segClassTraces, numClasses, numTraces); err != nil {
		return err
	}
	if x.ClassFreq, err = decodeU64IntsSeg(need, segClassFreq, numClasses, numEvents); err != nil {
		return err
	}
	if x.arena, err = decodeArenaSeg(need, segArena, numEvents, numClasses); err != nil {
		return err
	}
	if x.traceOff, err = decodeOffsetsSeg(need, segTraceOff, numTraces+1, numEvents); err != nil {
		return err
	}
	traceIDsB, err := need(segTraceIDs)
	if err != nil {
		return err
	}
	if x.traceIDs, err = decodeStringTable(traceIDsB, "trace-ids"); err != nil {
		return err
	}
	if len(x.traceIDs) != numTraces {
		return corruptf("trace-ids: %d ids, meta declares %d", len(x.traceIDs), numTraces)
	}
	if x.TraceVariant, err = decodeU32IntsSeg(need, segTraceVariant, numTraces, numVariants); err != nil {
		return err
	}
	if x.VariantCount, err = decodeU64IntsSeg(need, segVariantCount, numVariants, numTraces); err != nil {
		return err
	}
	vaB, err := need(segVariantArena)
	if err != nil {
		return err
	}
	if len(vaB)%4 != 0 {
		return corruptf("variant-arena: length %d not a multiple of 4", len(vaB))
	}
	if x.variantArena, err = decodeArena(vaB, len(vaB)/4, numClasses, "variant-arena"); err != nil {
		return err
	}
	if x.variantOff, err = decodeOffsetsSeg(need, segVariantOff, numVariants+1, len(x.variantArena)); err != nil {
		return err
	}
	if x.VariantClasses, err = decodeBitsetListSeg(need, segVariantClasses, numVariants, numClasses); err != nil {
		return err
	}

	logAttrsB, err := need(segLogAttrs)
	if err != nil {
		return err
	}
	lc := cursor{b: logAttrsB}
	if x.logAttrs, err = decodeAttrMap(&lc, "log-attrs"); err != nil {
		return err
	}
	if lc.remaining() != 0 {
		return corruptf("log-attrs: trailing bytes")
	}
	traceAttrsB, err := need(segTraceAttrs)
	if err != nil {
		return err
	}
	if numTraces > len(traceAttrsB) { // each map is at least one flag byte
		return corruptf("trace-attrs: %d bytes cannot hold %d maps", len(traceAttrsB), numTraces)
	}
	tc := cursor{b: traceAttrsB}
	x.traceAttrs = make([]map[string]Value, numTraces)
	for t := range x.traceAttrs {
		if x.traceAttrs[t], err = decodeAttrMap(&tc, "trace-attrs"); err != nil {
			return err
		}
	}
	if tc.remaining() != 0 {
		return corruptf("trace-attrs: trailing bytes")
	}
	return nil
}

func decodeStringTable(payload []byte, what string) ([]string, error) {
	c := cursor{b: payload}
	n, ok := c.u32()
	if !ok || int64(n) > int64(c.remaining())/4 {
		return nil, corruptf("%s: bad string count", what)
	}
	offB, ok := c.take((int(n) + 1) * 4)
	if !ok {
		return nil, corruptf("%s: short offset table", what)
	}
	blob := c.b[c.off:]
	out := make([]string, n)
	prev := binary.LittleEndian.Uint32(offB)
	if prev != 0 {
		return nil, corruptf("%s: first offset %d, want 0", what, prev)
	}
	for i := 0; i < int(n); i++ {
		end := binary.LittleEndian.Uint32(offB[(i+1)*4:])
		if end < prev || int64(end) > int64(len(blob)) {
			return nil, corruptf("%s: offsets not monotone at %d", what, i)
		}
		out[i] = string(blob[prev:end])
		prev = end
	}
	if int64(prev) != int64(len(blob)) {
		return nil, corruptf("%s: %d blob bytes unaccounted", what, int64(len(blob))-int64(prev))
	}
	return out, nil
}

func decodeWords(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func decodeBitsetListSeg(need func(uint32) ([]byte, error), kind uint32, count, universe int) ([]bitset.Set, error) {
	what := segmentKindNames[kind]
	payload, err := need(kind)
	if err != nil {
		return nil, err
	}
	c := cursor{b: payload}
	n, ok := c.u32()
	if !ok || int64(n) != int64(count) {
		return nil, corruptf("%s: set count mismatch (have %d, want %d)", what, n, count)
	}
	out := make([]bitset.Set, count)
	for i := range out {
		wc, ok := c.u32()
		if !ok || int64(wc)*8 > int64(c.remaining()) {
			return nil, corruptf("%s: bad word count in set %d", what, i)
		}
		wb, _ := c.take(int(wc) * 8)
		out[i] = bitset.FromWords(decodeWords(wb))
		if out[i].Max() >= universe {
			return nil, corruptf("%s: set %d holds element %d beyond universe %d", what, i, out[i].Max(), universe)
		}
	}
	if c.remaining() != 0 {
		return nil, corruptf("%s: trailing bytes", what)
	}
	return out, nil
}

func decodeU64IntsSeg(need func(uint32) ([]byte, error), kind uint32, count, limit int) ([]int, error) {
	what := segmentKindNames[kind]
	payload, err := need(kind)
	if err != nil {
		return nil, err
	}
	if len(payload) != count*8 {
		return nil, corruptf("%s: %d bytes, want %d entries", what, len(payload), count)
	}
	out := make([]int, count)
	for i := range out {
		v := binary.LittleEndian.Uint64(payload[i*8:])
		if v > uint64(limit) {
			return nil, corruptf("%s: entry %d is %d, exceeds %d", what, i, v, limit)
		}
		out[i] = int(v)
	}
	return out, nil
}

// decodeU32IntsSeg decodes a u32 array whose entries must be < limit.
func decodeU32IntsSeg(need func(uint32) ([]byte, error), kind uint32, count, limit int) ([]int, error) {
	what := segmentKindNames[kind]
	payload, err := need(kind)
	if err != nil {
		return nil, err
	}
	if len(payload) != count*4 {
		return nil, corruptf("%s: %d bytes, want %d entries", what, len(payload), count)
	}
	out := make([]int, count)
	for i := range out {
		v := binary.LittleEndian.Uint32(payload[i*4:])
		if int64(v) >= int64(limit) {
			return nil, corruptf("%s: entry %d is %d, exceeds universe %d", what, i, v, limit)
		}
		out[i] = int(v)
	}
	return out, nil
}

func decodeArenaSeg(need func(uint32) ([]byte, error), kind uint32, count, numClasses int) ([]uint32, error) {
	payload, err := need(kind)
	if err != nil {
		return nil, err
	}
	if len(payload) != count*4 {
		return nil, corruptf("%s: %d bytes, want %d events", segmentKindNames[kind], len(payload), count)
	}
	return decodeArena(payload, count, numClasses, segmentKindNames[kind])
}

func decodeArena(payload []byte, count, numClasses int, what string) ([]uint32, error) {
	out := make([]uint32, count)
	for i := range out {
		v := binary.LittleEndian.Uint32(payload[i*4:])
		if int64(v) >= int64(numClasses) {
			return nil, corruptf("%s: class id %d at %d beyond universe %d", what, v, i, numClasses)
		}
		out[i] = v
	}
	return out, nil
}

// decodeOffsetsSeg decodes a monotone offset table that must start at 0 and
// end at last.
func decodeOffsetsSeg(need func(uint32) ([]byte, error), kind uint32, count, last int) ([]int, error) {
	what := segmentKindNames[kind]
	payload, err := need(kind)
	if err != nil {
		return nil, err
	}
	if len(payload) != count*8 {
		return nil, corruptf("%s: %d bytes, want %d entries", what, len(payload), count)
	}
	out := make([]int, count)
	prev := 0
	for i := range out {
		v := binary.LittleEndian.Uint64(payload[i*8:])
		if v > uint64(last) || int(v) < prev || (i == 0 && v != 0) {
			return nil, corruptf("%s: offsets not monotone over [0,%d] at %d", what, last, i)
		}
		out[i] = int(v)
		prev = int(v)
	}
	if out[count-1] != last {
		return nil, corruptf("%s: final offset %d, want %d", what, out[count-1], last)
	}
	return out, nil
}

func decodeAttrMap(c *cursor, what string) (map[string]Value, error) {
	flag, ok := c.u8()
	if !ok || flag > 1 {
		return nil, corruptf("%s: bad map flag", what)
	}
	if flag == 0 {
		return nil, nil
	}
	n, ok := c.u32()
	if !ok || int64(n) > int64(c.remaining())/5 { // min entry: key length + kind byte
		return nil, corruptf("%s: bad entry count %d", what, n)
	}
	m := make(map[string]Value, n)
	prev := ""
	for i := 0; i < int(n); i++ {
		k, ok := c.str()
		if !ok || (i > 0 && prev >= k) {
			return nil, corruptf("%s: keys not strictly sorted at %d", what, i)
		}
		prev = k
		v, err := decodeValue(c, what)
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

func decodeValue(c *cursor, what string) (Value, error) {
	kb, ok := c.u8()
	if !ok || kb > uint8(KindBool) {
		return Value{}, corruptf("%s: bad value kind", what)
	}
	v := Value{Kind: Kind(kb)}
	switch v.Kind {
	case KindString:
		if v.Str, ok = c.str(); !ok {
			return Value{}, corruptf("%s: bad string value", what)
		}
	case KindFloat, KindInt:
		bits, ok := c.u64()
		if !ok {
			return Value{}, corruptf("%s: short numeric value", what)
		}
		v.Num = math.Float64frombits(bits)
	case KindTime:
		b, ok := c.take(16)
		if !ok {
			return Value{}, corruptf("%s: short time value", what)
		}
		t, err := decodeTime(b, what)
		if err != nil {
			return Value{}, err
		}
		v.Time = t
	case KindBool:
		bb, ok := c.u8()
		if !ok || bb > 1 {
			return Value{}, corruptf("%s: bad bool value", what)
		}
		v.Bool = bb == 1
	}
	return v, nil
}

// decodeTime reconstructs a timestamp from its 16-byte record; offset 0 maps
// to time.UTC so zero-offset times render as RFC3339 "Z" again.
func decodeTime(b []byte, what string) (time.Time, error) {
	sec := int64(binary.LittleEndian.Uint64(b))
	nsec := binary.LittleEndian.Uint32(b[8:])
	off := int32(binary.LittleEndian.Uint32(b[12:]))
	if nsec >= 1e9 {
		return time.Time{}, corruptf("%s: %d nanoseconds in time record", what, nsec)
	}
	loc := time.UTC
	if off != 0 {
		loc = time.FixedZone("", int(off))
	}
	return time.Unix(sec, int64(nsec)).In(loc), nil
}
