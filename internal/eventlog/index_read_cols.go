package eventlog

import (
	"encoding/binary"
	"math"
	"time"

	"gecco/internal/bitset"
)

// decodeColumns rebuilds the attribute columns. Each column's payloads are
// structurally validated in one pass over its presence bitset — per-kind
// payload coverage, dictionary code bounds, kind byte range — so the Column
// accessors can index without further checks, and then decoded into the
// typed slices a Builder would have produced.
func decodeColumns(x *Index, segs map[segKey][]byte, nColSegs, numCols, numEvents int) error {
	if numCols > nColSegs { // every column carries at least col-meta
		return corruptf("meta declares %d columns, file has %d column segments", numCols, nColSegs)
	}
	x.cols = make([]*Column, numCols)
	x.colID = make(map[string]int, numCols)
	consumed := 0
	prevName := ""
	for id := 0; id < numCols; id++ {
		get := func(kind uint32) ([]byte, bool) {
			p, ok := segs[segKey{kind, uint32(id)}]
			if ok {
				consumed++
			}
			return p, ok
		}
		col, err := decodeColumn(get, id, numEvents)
		if err != nil {
			return err
		}
		if id > 0 && prevName >= col.name {
			return corruptf("column %d (%q): names not strictly sorted", id, col.name)
		}
		prevName = col.name
		x.cols[id] = col
		x.colID[col.name] = id
	}
	if consumed != nColSegs {
		return corruptf("%d column segments reference no declared column", nColSegs-consumed)
	}
	return nil
}

func decodeColumn(get func(uint32) ([]byte, bool), id, numEvents int) (*Column, error) {
	metaSeg, ok := get(segColMeta)
	if !ok {
		return nil, corruptf("column %d: missing col-meta", id)
	}
	mc := cursor{b: metaSeg}
	name, ok := mc.str()
	if !ok {
		return nil, corruptf("column %d: bad name", id)
	}
	kindB, ok := mc.u8()
	if !ok || kindB > uint8(KindBool) {
		return nil, corruptf("column %d (%q): bad uniform kind", id, name)
	}
	padB, ok := mc.take(3)
	if !ok || padB[0]|padB[1]|padB[2] != 0 || mc.remaining() != 0 {
		return nil, corruptf("column %d (%q): malformed col-meta", id, name)
	}

	presentSeg, ok := get(segColPresent)
	if !ok || len(presentSeg)%8 != 0 {
		return nil, corruptf("column %d (%q): missing or misaligned col-present", id, name)
	}
	present := bitset.FromWords(decodeWords(presentSeg))
	if present.Max() >= numEvents {
		return nil, corruptf("column %d (%q): present position %d beyond %d events", id, name, present.Max(), numEvents)
	}

	kindsSeg, _ := get(segColKinds)
	codesSeg, _ := get(segColCodes)
	numsSeg, _ := get(segColNums)
	timesSeg, _ := get(segColTimes)
	boolsSeg, hasBools := get(segColBools)
	var dict []string
	if dictSeg, ok := get(segColDict); ok {
		var err error
		if dict, err = decodeStringTable(dictSeg, "col-dict"); err != nil {
			return nil, err
		}
	}
	mixed := len(kindsSeg) > 0
	if mixed && kindB != uint8(KindNone) {
		return nil, corruptf("column %d (%q): mixed column declares uniform kind %d", id, name, kindB)
	}
	if len(codesSeg)%4 != 0 || len(numsSeg)%8 != 0 || len(timesSeg)%16 != 0 || len(boolsSeg)%8 != 0 {
		return nil, corruptf("column %d (%q): misaligned payload segment", id, name)
	}
	if hasBools && len(boolsSeg) == 0 {
		return nil, corruptf("column %d (%q): empty col-bools segment", id, name)
	}

	c := &Column{name: name, present: present, kind: Kind(kindB), dict: dict}
	if len(boolsSeg) > 0 {
		c.bools = bitset.FromWords(decodeWords(boolsSeg))
	}

	// One validation pass over the present positions: after it, the
	// accessors' kind, code, number, and time reads can never index out of
	// bounds or hit an out-of-dictionary code.
	maxCodes, maxNums, maxTimes := len(codesSeg)/4, len(numsSeg)/8, len(timesSeg)/16
	var verr error
	present.ForEach(func(pos int) bool {
		k := Kind(kindB)
		if mixed {
			if pos >= len(kindsSeg) || kindsSeg[pos] > uint8(KindBool) {
				verr = corruptf("column %d (%q): bad kind byte at position %d", id, name, pos)
				return false
			}
			k = Kind(kindsSeg[pos])
		}
		switch k {
		case KindString:
			if pos >= maxCodes {
				verr = corruptf("column %d (%q): string at %d beyond codes payload", id, name, pos)
				return false
			}
			if code := binary.LittleEndian.Uint32(codesSeg[pos*4:]); int64(code) >= int64(len(dict)) {
				verr = corruptf("column %d (%q): code %d beyond dictionary of %d", id, name, code, len(dict))
				return false
			}
		case KindFloat, KindInt:
			if pos >= maxNums {
				verr = corruptf("column %d (%q): number at %d beyond nums payload", id, name, pos)
				return false
			}
		case KindTime:
			if pos >= maxTimes {
				verr = corruptf("column %d (%q): time at %d beyond times payload", id, name, pos)
				return false
			}
			if nsec := binary.LittleEndian.Uint32(timesSeg[pos*16+8:]); nsec >= 1e9 {
				verr = corruptf("column %d (%q): %d nanoseconds at %d", id, name, nsec, pos)
				return false
			}
		}
		return true
	})
	if verr != nil {
		return nil, verr
	}

	if mixed {
		c.kinds = append([]uint8(nil), kindsSeg...)
	}
	if maxCodes > 0 {
		c.codes = make([]uint32, maxCodes)
		for i := range c.codes {
			c.codes[i] = binary.LittleEndian.Uint32(codesSeg[i*4:])
		}
	}
	if maxNums > 0 {
		c.nums = make([]float64, maxNums)
		for i := range c.nums {
			c.nums[i] = math.Float64frombits(binary.LittleEndian.Uint64(numsSeg[i*8:]))
		}
	}
	if maxTimes > 0 {
		// One *time.Location per distinct zone offset; offset 0 maps to
		// time.UTC, so zero-offset times render as RFC3339 "Z" again.
		locs := map[int32]*time.Location{0: time.UTC}
		c.times = make([]time.Time, maxTimes)
		for i := range c.times {
			rec := timesSeg[i*16:]
			sec := int64(binary.LittleEndian.Uint64(rec))
			nsec := binary.LittleEndian.Uint32(rec[8:])
			off := int32(binary.LittleEndian.Uint32(rec[12:]))
			loc := locs[off]
			if loc == nil {
				loc = time.FixedZone("", int(off))
				locs[off] = loc
			}
			c.times[i] = time.Unix(sec, int64(nsec)%1e9).In(loc)
		}
	}
	return c, nil
}
