// Request hashing: cache keys are a SHA-256 digest over the canonicalised
// request — log content, constraint set, and the result-affecting Config
// fields. Two requests with byte-different but semantically identical
// inputs (reordered constraint declarations, different Workers settings)
// map to the same key, so repeated logs hit the cache regardless of how the
// client phrased the request.
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
)

// LogDigest hashes a log's canonical structure: trace IDs, event classes,
// and each event's attributes in sorted order, all length-prefixed so that
// no two distinct logs share an encoding. The digest is independent of the
// wire format the log arrived in (XES and CSV uploads of the same events
// collide, as they should) — which is also why log.Name is excluded: XES
// carries a log-level concept:name while CSV cannot, and the name only
// decorates the output (a cache hit echoes the first run's name). Trace-
// and log-level attributes are excluded for the same reason: constraints
// and distance read only event data, so they cannot change the result.
//
// The serving path digests uploads with IndexDigest, which has its own
// encoder; LogDigest is the reference it is pinned against.
//
//lint:gecco-allow(ctxflow): pure CPU hash over a body already capped at maxBodyBytes (64 MiB); finishes in tens of ms, nothing to cancel
func LogDigest(log *eventlog.Log) string {
	h := sha256.New()
	writeInt(h, len(log.Traces))
	for i := range log.Traces {
		tr := &log.Traces[i]
		writeStr(h, tr.ID)
		writeInt(h, len(tr.Events))
		for j := range tr.Events {
			e := &tr.Events[j]
			writeStr(h, e.Class)
			names := make([]string, 0, len(e.Attrs))
			for name := range e.Attrs {
				names = append(names, name)
			}
			sort.Strings(names)
			writeInt(h, len(names))
			for _, name := range names {
				v := e.Attrs[name]
				writeStr(h, name)
				writeInt(h, int(v.Kind))
				if v.Kind == eventlog.KindTime {
					// AsString renders RFC3339 without sub-second
					// precision, but gap/span constraints compare at full
					// precision — two logs differing only in fractional
					// seconds must not collide on one cache key.
					writeInt(h, int(v.Time.UnixNano()))
				} else {
					writeStr(h, v.AsString())
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// IndexDigest is LogDigest computed from a columnar Index: it hashes the
// same bytes in the same order, so an upload parsed straight into its Index
// keys the result cache, the wire memo and its .gidx file exactly as its
// *Log would. Each event's attributes are visited in name order.
//
//lint:gecco-allow(ctxflow): pure CPU hash over an index built from a body already capped at maxBodyBytes (64 MiB); nothing to cancel
func IndexDigest(x *eventlog.Index) string {
	cols := x.ColumnsByName()
	d := newDigester()
	d.putInt(x.NumTraces())
	for t := 0; t < x.NumTraces(); t++ {
		d.putStr(x.TraceID(t))
		seq := x.Seq(t)
		d.putInt(len(seq))
		for j, c := range seq {
			pos := x.TraceStart(t) + j
			d.putStr(x.Classes[c])
			n := 0
			for _, col := range cols {
				if col.Has(pos) {
					n++
				}
			}
			d.putInt(n)
			for _, col := range cols {
				if v, ok := col.Value(pos); ok {
					d.putAttr(col.Name(), v)
				}
			}
		}
	}
	return d.sum()
}

// digester feeds IndexDigest's copy of LogDigest's length-prefixed encoding
// to SHA-256, through a buffer so that a field does not cost a hash call.
type digester struct {
	h   hash.Hash
	buf []byte
}

const digestChunk = 8 << 10

func newDigester() *digester {
	return &digester{h: sha256.New(), buf: make([]byte, 0, digestChunk+1<<10)}
}

func (d *digester) putInt(n int) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(n))
	d.spill()
}

func (d *digester) putStr(s string) {
	d.putInt(len(s))
	d.buf = append(d.buf, s...)
	d.spill()
}

// putAttr encodes one event attribute. A time hashes its instant in
// nanoseconds: AsString renders RFC3339 without sub-second precision, but
// gap/span constraints compare at full precision — two logs differing only
// in fractional seconds must not collide on one cache key.
func (d *digester) putAttr(name string, v eventlog.Value) {
	d.putStr(name)
	d.putInt(int(v.Kind))
	if v.Kind == eventlog.KindTime {
		d.putInt(int(v.Time.UnixNano()))
	} else {
		d.putStr(v.AsString())
	}
}

func (d *digester) spill() {
	if len(d.buf) >= digestChunk {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digester) sum() string {
	d.h.Write(d.buf)
	return hex.EncodeToString(d.h.Sum(nil))
}

// canonicalConfig renders the result-affecting Config fields. Workers is
// deliberately omitted: any worker count produces byte-identical results.
// The "timelimit=0" text stands where a since-removed wall-clock Step 1
// limit used to be rendered; it stays so that request keys, and the results
// persisted under them, keep their values.
func canonicalConfig(cfg core.Config) string {
	return fmt.Sprintf("mode=%d beam=%d strategy=%d policy=%d maxchecks=%d timelimit=0 solver=%d solvertimeout=%d skipmerge=%t prefix=%q byattr=%q groupingonly=%t",
		cfg.Mode, cfg.BeamWidth, cfg.Strategy, cfg.Policy,
		cfg.Budget.MaxChecks,
		cfg.Solver, cfg.SolverTimeout, cfg.SkipExclusiveMerge,
		cfg.NamePrefix, cfg.NameByClassAttr, cfg.GroupingOnly)
}

// Cacheable reports whether a request's result is deterministic and so safe
// to cache and to coalesce with identical in-flight requests. A
// SolverTimeout cuts Step 2 at a timing-dependent point, and
// CustomCandidates is an opaque function — both bypass the cache.
func Cacheable(cfg core.Config) bool {
	return cfg.SolverTimeout == 0 && cfg.CustomCandidates == nil
}

// requestKey combines the three canonical components into the cache key.
func requestKey(logDigest string, set *constraints.Set, cfg core.Config) string {
	h := sha256.New()
	writeStr(h, logDigest)
	writeStr(h, set.String())
	writeStr(h, canonicalConfig(cfg))
	return hex.EncodeToString(h.Sum(nil))
}

func writeStr(h hash.Hash, s string) {
	writeInt(h, len(s))
	h.Write([]byte(s))
}

func writeInt(h hash.Hash, n int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
}
