package service

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"gecco/internal/core"
	"gecco/internal/csvlog"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
	"gecco/internal/xes"
)

// digestPinLogs are the logs IndexDigest is pinned to LogDigest on: every
// procgen model the repository ships, including the synthetic Table VI
// collection, and the hand-built logs of handBuiltDigestLogs.
func digestPinLogs() map[string]*eventlog.Log {
	logs := handBuiltDigestLogs()
	logs["running example (Table I)"] = procgen.RunningExampleTable1()
	logs["running example"] = procgen.RunningExample(60, 7)
	logs["loan application"] = procgen.LoanLog(60, 17)
	for _, l := range procgen.Collection() {
		logs[l.Name] = l
	}
	return logs
}

// handBuiltDigestLogs are logs for the encodings most likely to drift; they
// also seed FuzzIndexDigest.
func handBuiltDigestLogs() map[string]*eventlog.Log {
	base := time.Date(2024, 1, 1, 10, 0, 0, 0, time.UTC)
	event := func(class string, attrs map[string]eventlog.Value) eventlog.Event {
		return eventlog.Event{Class: class, Attrs: attrs}
	}
	return map[string]*eventlog.Log{
		"mixed-kind columns": {Traces: []eventlog.Trace{{ID: "t1", Events: []eventlog.Event{
			event("a", map[string]eventlog.Value{"x": eventlog.String("3")}),
			event("b", map[string]eventlog.Value{"x": eventlog.Int(3)}),
			event("a", map[string]eventlog.Value{"x": eventlog.Float(3.5), "y": eventlog.Bool(false)}),
			event("c", map[string]eventlog.Value{"x": eventlog.Bool(true), "y": eventlog.Time(base)}),
			event("c", map[string]eventlog.Value{"y": eventlog.String("late")}),
			event("d", nil),
		}}}},
		"sub-second timestamps": {Traces: []eventlog.Trace{{ID: "t1", Events: []eventlog.Event{
			event("a", map[string]eventlog.Value{eventlog.AttrTimestamp: eventlog.Time(base.Add(123456789))}),
			event("b", map[string]eventlog.Value{eventlog.AttrTimestamp: eventlog.Time(base.Add(900 * time.Millisecond))}),
		}}}},
		"integer-valued floats": {Traces: []eventlog.Trace{{ID: "t1", Events: []eventlog.Event{
			event("a", map[string]eventlog.Value{"f": eventlog.Float(2), "i": eventlog.Int(2)}),
			event("a", map[string]eventlog.Value{"f": eventlog.Float(1e21), "i": eventlog.Int(1 << 53)}),
			event("a", map[string]eventlog.Value{"f": eventlog.Float(math.Copysign(0, -1)), "i": eventlog.Int(-7)}),
		}}}},
	}
}

// TestIndexDigestMatchesLogDigest pins the serving path's digest to the
// reference: IndexDigest of a log's Index, built directly or by the XES
// scanner from the log's serialisation, is LogDigest of the log. Cache
// keys, wire-memo entries and .gidx names therefore did not change.
func TestIndexDigestMatchesLogDigest(t *testing.T) {
	logs := digestPinLogs()
	names := make([]string, 0, len(logs))
	for name := range logs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		log := logs[name]
		want := LogDigest(log)
		if got := IndexDigest(eventlog.NewIndex(log)); got != want {
			t.Errorf("%s: IndexDigest(NewIndex) = %s, LogDigest = %s", name, got, want)
		}
		var b bytes.Buffer
		if err := xes.Write(&b, log); err != nil {
			t.Fatal(err)
		}
		x, err := xes.ReadIndex(&b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := IndexDigest(x); got != want {
			t.Errorf("%s: IndexDigest of the scanned XES = %s, LogDigest = %s", name, got, want)
		}
	}
}

// FuzzIndexDigest holds IndexDigest to LogDigest on the logs fuzzLog
// builds from the fuzz bytes: the digest keys the result cache and the
// wire memo and names .gidx files, so the Index must hash exactly the bytes
// its *Log does. The hand-built pin logs seed it.
func FuzzIndexDigest(f *testing.F) {
	logs := handBuiltDigestLogs()
	names := make([]string, 0, len(logs))
	for name := range logs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data := fuzzLogBytes(f, logs[name])
		if got, want := LogDigest(fuzzLog(data)), LogDigest(logs[name]); got != want {
			f.Fatalf("%s: the seed decodes to another log (digest %s, want %s)", name, got, want)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		log := fuzzLog(data)
		if got, want := IndexDigest(eventlog.NewIndex(log)), LogDigest(log); got != want {
			t.Fatalf("IndexDigest = %s, LogDigest = %s", got, want)
		}
	})
}

// The alphabets fuzzLog draws classes and attribute names from: a few
// names, so that events share columns and a name takes several kinds, and
// the names the loaders treat specially.
var (
	fuzzClasses   = []string{"a", "b", "c", "d", "e"}
	fuzzAttrNames = []string{"f", "i", "role", "x", "y", eventlog.AttrTimestamp, "concept:name"}
	// fuzzFloats and fuzzInts are the payloads a float or an int selector
	// below their length picks; a larger selector reads 8 raw bytes.
	fuzzFloats = []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e21, 0.1}
	fuzzInts   = []float64{1<<53 + 2, -(1<<53 + 2), 1 << 63, 1e19, -1e300}
)

// fuzzLog decodes a log from fuzz bytes. Layout: a trace count (byte % 5);
// per trace an ID (str) and an event count (byte % 8); per event a class
// (byte, fuzzClasses) and an attribute count (byte % 4); per attribute a
// name (byte, fuzzAttrNames) and a value: a kind (byte % 6, KindNone to
// KindBool) and its payload. A string is str; a float or an int is a
// selector byte (% 8) that picks a special or reads 8 raw bytes of the
// float64 payload; a time is 8 bytes of Unix nanoseconds and a zone byte
// (half hours from UTC-14:00); a bool is a byte's low bit. str is a length
// byte (% 16) and that many bytes. Missing bytes read as zeros, so every
// input decodes. fuzzLogBytes encodes a log in this layout.
func fuzzLog(data []byte) *eventlog.Log {
	r := fuzzReader(data)
	log := &eventlog.Log{Traces: make([]eventlog.Trace, r.byte()%5)}
	for t := range log.Traces {
		tr := &log.Traces[t]
		tr.ID = r.str()
		tr.Events = make([]eventlog.Event, r.byte()%8)
		for e := range tr.Events {
			ev := &tr.Events[e]
			ev.Class = fuzzClasses[int(r.byte())%len(fuzzClasses)]
			for n := r.byte() % 4; n > 0; n-- {
				name := fuzzAttrNames[int(r.byte())%len(fuzzAttrNames)]
				ev.SetAttr(name, r.value())
			}
		}
	}
	return log
}

type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

func (r *fuzzReader) u64() uint64 {
	var buf [8]byte
	*r = (*r)[copy(buf[:], *r):]
	return binary.LittleEndian.Uint64(buf[:])
}

func (r *fuzzReader) str() string {
	n := min(int(r.byte()%16), len(*r))
	s := string((*r)[:n])
	*r = (*r)[n:]
	return s
}

func (r *fuzzReader) value() eventlog.Value {
	switch kind := eventlog.Kind(r.byte() % 6); kind {
	case eventlog.KindString:
		return eventlog.String(r.str())
	case eventlog.KindFloat, eventlog.KindInt:
		specials := fuzzFloats
		if kind == eventlog.KindInt {
			specials = fuzzInts
		}
		num := 0.0
		if sel := int(r.byte() % 8); sel < len(specials) {
			num = specials[sel]
		} else {
			num = math.Float64frombits(r.u64())
		}
		return eventlog.Value{Kind: kind, Num: num}
	case eventlog.KindTime:
		ns := int64(r.u64())
		off := (int(r.byte()%57) - 28) * 1800
		zone := time.UTC
		if off != 0 {
			zone = time.FixedZone("", off)
		}
		return eventlog.Time(time.Unix(0, ns).In(zone))
	case eventlog.KindBool:
		return eventlog.Bool(r.byte()&1 == 1)
	}
	return eventlog.Value{}
}

// fuzzLogBytes encodes a log in fuzzLog's layout. It fails on a log the
// layout cannot hold: too many traces, events or attributes, a class or
// attribute name outside the alphabets, a string over 15 bytes, or a time
// outside int64 nanoseconds or off the half-hour zones.
func fuzzLogBytes(tb testing.TB, log *eventlog.Log) []byte {
	tb.Helper()
	var b []byte
	index := func(names []string, name string) byte {
		for i, n := range names {
			if n == name {
				return byte(i)
			}
		}
		tb.Fatalf("fuzzLogBytes: %q is not in %q", name, names)
		return 0
	}
	str := func(s string) {
		if len(s) >= 16 {
			tb.Fatalf("fuzzLogBytes: string %q is over 15 bytes", s)
		}
		b = append(append(b, byte(len(s))), s...)
	}
	count := func(n, limit int) {
		if n >= limit {
			tb.Fatalf("fuzzLogBytes: %d items, at most %d fit", n, limit-1)
		}
		b = append(b, byte(n))
	}
	count(len(log.Traces), 5)
	for _, tr := range log.Traces {
		str(tr.ID)
		count(len(tr.Events), 8)
		for _, ev := range tr.Events {
			b = append(b, index(fuzzClasses, ev.Class))
			names := make([]string, 0, len(ev.Attrs))
			for name := range ev.Attrs {
				names = append(names, name)
			}
			sort.Strings(names)
			count(len(names), 4)
			for _, name := range names {
				b = append(b, index(fuzzAttrNames, name))
				v := ev.Attrs[name]
				b = append(b, byte(v.Kind))
				switch v.Kind {
				case eventlog.KindString:
					str(v.Str)
				case eventlog.KindFloat, eventlog.KindInt:
					b = binary.LittleEndian.AppendUint64(append(b, 7), math.Float64bits(v.Num))
				case eventlog.KindTime:
					_, off := v.Time.Zone()
					if off%1800 != 0 || off < -28*1800 || off > 28*1800 || !time.Unix(0, v.Time.UnixNano()).Equal(v.Time) {
						tb.Fatalf("fuzzLogBytes: time %v does not fit", v.Time)
					}
					b = binary.LittleEndian.AppendUint64(b, uint64(v.Time.UnixNano()))
					b = append(b, byte(off/1800+28))
				case eventlog.KindBool:
					if v.Bool {
						b = append(b, 1)
					} else {
						b = append(b, 0)
					}
				}
			}
		}
	}
	return b
}

// TestLogDigestValue holds the encoding itself fixed: result-cache keys,
// wire-memo entries and .gidx file names persist across releases, so the
// digest of a known log must never change.
func TestLogDigestValue(t *testing.T) {
	const want = "b8eb1ae6e1a647203ee5e0fc34585333d539eb5c7d88dfef2b44035fde9bf0e3"
	log := procgen.RunningExampleTable1()
	if got := LogDigest(log); got != want {
		t.Errorf("LogDigest(RunningExampleTable1) = %s, want %s", got, want)
	}
	if got := IndexDigest(eventlog.NewIndex(log)); got != want {
		t.Errorf("IndexDigest(RunningExampleTable1) = %s, want %s", got, want)
	}
}

// TestRequestKeyValue holds a request key fixed: results persisted under
// <DataDir>/results/ are named by it, so a key that changes strands every
// stored result.
func TestRequestKeyValue(t *testing.T) {
	const want = "21303d6dcf53cc5894f2f2fef9b2f9aeb7aea2c527e771a4a70ef98d97b76f01"
	set := mustSet(t, "distinct(role) <= 1\n|g| <= 8")
	if got := requestKey(LogDigest(procgen.RunningExampleTable1()), set, core.Config{}); got != want {
		t.Errorf("requestKey = %s, want %s", got, want)
	}
}

// TestIndexDigestCSV pins the digest of CSV uploads: csvlog.ReadIndex, the
// serving path, digests like csvlog.Read's log.
func TestIndexDigestCSV(t *testing.T) {
	for _, log := range []*eventlog.Log{procgen.RunningExampleTable1(), procgen.LoanLog(30, 5)} {
		var b strings.Builder
		if err := csvlog.Write(&b, log); err != nil {
			t.Fatal(err)
		}
		parsed, err := csvlog.Read(strings.NewReader(b.String()), csvlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		x, err := csvlog.ReadIndex(strings.NewReader(b.String()), csvlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := IndexDigest(x), LogDigest(parsed); got != want {
			t.Errorf("%s: CSV IndexDigest = %s, LogDigest = %s", log.Name, got, want)
		}
	}
}

// BenchmarkDigest compares the two digests on one loan log.
func BenchmarkDigest(b *testing.B) {
	log := procgen.LoanLog(50, 1)
	x := eventlog.NewIndex(log)
	for _, bc := range []struct {
		name string
		fn   func() string
	}{{"Log", func() string { return LogDigest(log) }}, {"Index", func() string { return IndexDigest(x) }}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = bc.fn()
			}
		})
	}
}

var sink string
