package xes

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

const sampleXES = `<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <string key="concept:name" value="sample"/>
  <trace>
    <string key="concept:name" value="case-1"/>
    <event>
      <string key="concept:name" value="register"/>
      <date key="time:timestamp" value="2021-06-01T08:00:00Z"/>
      <string key="role" value="clerk"/>
      <float key="cost" value="12.5"/>
      <int key="items" value="3"/>
      <boolean key="urgent" value="true"/>
    </event>
    <event>
      <string key="concept:name" value="approve"/>
      <date key="time:timestamp" value="2021-06-01T09:00:00Z"/>
    </event>
  </trace>
</log>`

func TestReadSample(t *testing.T) {
	log, err := Read(strings.NewReader(sampleXES))
	if err != nil {
		t.Fatal(err)
	}
	if log.Name != "sample" {
		t.Errorf("name = %q", log.Name)
	}
	if len(log.Traces) != 1 || log.Traces[0].ID != "case-1" {
		t.Fatalf("traces = %+v", log.Traces)
	}
	ev := log.Traces[0].Events
	if len(ev) != 2 || ev[0].Class != "register" || ev[1].Class != "approve" {
		t.Fatalf("events = %+v", ev)
	}
	if v := ev[0].Attrs["role"]; v.Str != "clerk" {
		t.Errorf("role = %+v", v)
	}
	if v := ev[0].Attrs["cost"]; v.Kind != eventlog.KindFloat || v.Num != 12.5 {
		t.Errorf("cost = %+v", v)
	}
	if v := ev[0].Attrs["items"]; v.Kind != eventlog.KindInt || v.Num != 3 {
		t.Errorf("items = %+v", v)
	}
	if v := ev[0].Attrs["urgent"]; v.Kind != eventlog.KindBool || !v.Bool {
		t.Errorf("urgent = %+v", v)
	}
	ts, ok := ev[0].Timestamp()
	if !ok || !ts.Equal(time.Date(2021, 6, 1, 8, 0, 0, 0, time.UTC)) {
		t.Errorf("timestamp = %v", ts)
	}
}

func TestReadRejectsClasslessEvent(t *testing.T) {
	src := `<log><trace><event><string key="x" value="y"/></event></trace></log>`
	if _, err := Read(strings.NewReader(src)); err == nil {
		t.Fatal("expected error for event without concept:name")
	}
}

func TestRoundTrip(t *testing.T) {
	orig := procgen.RunningExampleTable1()
	// Keys, values and IDs that XML must escape, which quoting with %q
	// used to corrupt: each must read back exactly.
	for i, s := range []string{"R&D", "x<y", `say "hi"`, `a\b`, "tab\there"} {
		orig.Traces[0].Events[i].SetAttr("k "+s, eventlog.String(s))
		orig.Traces[i%len(orig.Traces)].ID += " " + s
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name {
		t.Errorf("name %q != %q", back.Name, orig.Name)
	}
	if len(back.Traces) != len(orig.Traces) {
		t.Fatalf("trace count %d != %d", len(back.Traces), len(orig.Traces))
	}
	for i := range orig.Traces {
		ot, bt := &orig.Traces[i], &back.Traces[i]
		if ot.ID != bt.ID {
			t.Fatalf("trace %d ID %q != %q", i, bt.ID, ot.ID)
		}
		if ot.Variant() != bt.Variant() {
			t.Fatalf("trace %d variant mismatch: %q vs %q", i, ot.Variant(), bt.Variant())
		}
		for j := range ot.Events {
			oe, be := &ot.Events[j], &bt.Events[j]
			if len(oe.Attrs) != len(be.Attrs) {
				t.Fatalf("trace %d event %d attr count %d != %d", i, j, len(be.Attrs), len(oe.Attrs))
			}
			for k, ov := range oe.Attrs {
				bv, ok := be.Attrs[k]
				if !ok {
					t.Fatalf("trace %d event %d missing attr %q", i, j, k)
				}
				if ov.Kind != bv.Kind {
					t.Fatalf("attr %q kind %v != %v", k, bv.Kind, ov.Kind)
				}
				if ov.Kind == eventlog.KindString && ov.Str != bv.Str {
					t.Fatalf("attr %q value %q != %q", k, bv.Str, ov.Str)
				}
				if ov.Kind == eventlog.KindTime && !ov.Time.Equal(bv.Time) {
					t.Fatalf("attr %q time %v != %v", k, bv.Time, ov.Time)
				}
			}
		}
	}
}

// TestTraceAndLogAttributeKinds pins the satellite fix: trace- and
// log-level attributes of every kind (not just <string>) are captured on
// read, survive a write/read round trip, and non-attribute header elements
// are still skipped.
func TestTraceAndLogAttributeKinds(t *testing.T) {
	const src = `<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>
  <classifier name="Activity" keys="concept:name"/>
  <string key="concept:name" value="attributed"/>
  <date key="exported" value="2022-03-01T12:00:00Z"/>
  <int key="version" value="7"/>
  <trace>
    <string key="concept:name" value="case-9"/>
    <int key="priority" value="3"/>
    <float key="amount" value="99.5"/>
    <boolean key="escalated" value="true"/>
    <date key="opened" value="2022-03-01T08:30:00Z"/>
    <event>
      <string key="concept:name" value="register"/>
    </event>
  </trace>
</log>`
	log, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if log.Name != "attributed" {
		t.Errorf("name = %q", log.Name)
	}
	if v := log.Attrs["exported"]; v.Kind != eventlog.KindTime || !v.Time.Equal(time.Date(2022, 3, 1, 12, 0, 0, 0, time.UTC)) {
		t.Errorf("log exported = %+v", v)
	}
	if v := log.Attrs["version"]; v.Kind != eventlog.KindInt || v.Num != 7 {
		t.Errorf("log version = %+v", v)
	}
	tr := &log.Traces[0]
	if tr.ID != "case-9" {
		t.Errorf("trace id = %q", tr.ID)
	}
	if v := tr.Attrs["priority"]; v.Kind != eventlog.KindInt || v.Num != 3 {
		t.Errorf("priority = %+v", v)
	}
	if v := tr.Attrs["amount"]; v.Kind != eventlog.KindFloat || v.Num != 99.5 {
		t.Errorf("amount = %+v", v)
	}
	if v := tr.Attrs["escalated"]; v.Kind != eventlog.KindBool || !v.Bool {
		t.Errorf("escalated = %+v", v)
	}
	if v := tr.Attrs["opened"]; v.Kind != eventlog.KindTime {
		t.Errorf("opened = %+v", v)
	}
	if _, ok := tr.Attrs[conceptName]; ok {
		t.Error("concept:name leaked into trace attrs")
	}
	if len(log.Attrs) != 2 {
		t.Errorf("log attrs = %+v (header elements must be skipped)", log.Attrs)
	}

	// Round trip: write and re-read, then compare every layer.
	var buf bytes.Buffer
	if err := Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading written log: %v\n%s", err, buf.String())
	}
	assertAttrsEqual(t, "log", log.Attrs, back.Attrs)
	if len(back.Traces) != 1 || back.Traces[0].ID != "case-9" {
		t.Fatalf("round-tripped traces = %+v", back.Traces)
	}
	assertAttrsEqual(t, "trace", tr.Attrs, back.Traces[0].Attrs)
}

func assertAttrsEqual(t *testing.T, layer string, want, got map[string]eventlog.Value) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s attrs: %d != %d (%+v vs %+v)", layer, len(got), len(want), got, want)
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("%s attr %q lost in round trip", layer, k)
		}
		if gv.Kind != wv.Kind {
			t.Fatalf("%s attr %q kind %v != %v", layer, k, gv.Kind, wv.Kind)
		}
		if wv.Kind == eventlog.KindTime {
			if !gv.Time.Equal(wv.Time) {
				t.Fatalf("%s attr %q time %v != %v", layer, k, gv.Time, wv.Time)
			}
		} else if gv != wv {
			t.Fatalf("%s attr %q %+v != %+v", layer, k, gv, wv)
		}
	}
}

func TestTimestampFormats(t *testing.T) {
	for _, s := range []string{
		"2021-06-01T08:00:00Z",
		"2021-06-01T08:00:00.123Z",
		"2021-06-01T08:00:00+02:00",
		"2021-06-01T08:00:00.000+02:00",
	} {
		if _, err := parseXESTime(s); err != nil {
			t.Errorf("parseXESTime(%q): %v", s, err)
		}
	}
	if _, err := parseXESTime("junk"); err == nil {
		t.Error("expected error for junk timestamp")
	}
}

// TestReadIndexMatchesRead pins the loader-direct construction path: feeding
// the Builder straight from the XML decode must yield the same index as
// NewIndex(Read(...)) — same shape, same columns, and a reconstruction that
// serialises byte-identically.
func TestReadIndexMatchesRead(t *testing.T) {
	log, err := Read(strings.NewReader(sampleXES))
	if err != nil {
		t.Fatal(err)
	}
	viaLog := eventlog.NewIndex(log)
	direct, err := ReadIndex(strings.NewReader(sampleXES))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Name != viaLog.Name || direct.NumEvents() != viaLog.NumEvents() ||
		direct.NumTraces() != viaLog.NumTraces() || direct.NumClasses() != viaLog.NumClasses() {
		t.Fatalf("index shapes differ: direct %d/%d/%d, via log %d/%d/%d",
			direct.NumTraces(), direct.NumEvents(), direct.NumClasses(),
			viaLog.NumTraces(), viaLog.NumEvents(), viaLog.NumClasses())
	}
	var fromDirect, fromLog bytes.Buffer
	if err := Write(&fromDirect, direct.ReconstructLog()); err != nil {
		t.Fatal(err)
	}
	if err := Write(&fromLog, viaLog.ReconstructLog()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromDirect.Bytes(), fromLog.Bytes()) {
		t.Fatalf("reconstructions differ:\n%s\nvs\n%s", fromDirect.String(), fromLog.String())
	}
	var orig bytes.Buffer
	if err := Write(&orig, log); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromDirect.Bytes(), orig.Bytes()) {
		t.Fatal("loader-direct index does not reconstruct the original document's log")
	}
}

// TestReadIndexRejectsClasslessEvent mirrors Read's validation on the
// loader-direct path.
func TestReadIndexRejectsClasslessEvent(t *testing.T) {
	const doc = `<log><trace><event><string key="x" value="y"/></event></trace></log>`
	if _, err := ReadIndex(strings.NewReader(doc)); err == nil {
		t.Fatal("expected missing concept:name error")
	}
}

// TestWriteMatchesOldWriter pins Write byte for byte to the fmt-based writer
// it replaced, on logs whose values need no escaping, including the float
// formats %g prints specially.
func TestWriteMatchesOldWriter(t *testing.T) {
	sample, err := Read(strings.NewReader(sampleXES))
	if err != nil {
		t.Fatal(err)
	}
	floats := &eventlog.Log{Name: "floats", Traces: []eventlog.Trace{{ID: "f"}}}
	for i, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e21, 1e-7, math.Copysign(0, -1), 123456789.125, 3} {
		ev := eventlog.Event{Class: "a"}
		ev.SetAttr("f", eventlog.Float(f))
		ev.SetAttr("i", eventlog.Int(int64(i)-4))
		ev.SetAttr("b", eventlog.Bool(i%2 == 0))
		floats.Traces[0].Events = append(floats.Traces[0].Events, ev)
	}
	for _, log := range []*eventlog.Log{sample, floats, procgen.RunningExampleTable1(), procgen.LoanLog(40, 3)} {
		var b bytes.Buffer
		if err := Write(&b, log); err != nil {
			t.Fatal(err)
		}
		if want := writeOracle(log); b.String() != want {
			t.Fatalf("%s: Write differs from the old writer:\n%s\nwant\n%s", log.Name, b.String(), want)
		}
	}
}

// BenchmarkRead reads a 50-trace loan log with the scanner (ReadIndex and
// Read) and with the encoding/xml oracle it replaced.
func BenchmarkRead(b *testing.B) {
	var doc bytes.Buffer
	if err := Write(&doc, procgen.LoanLog(50, 1)); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		read func(io.Reader) error
	}{
		{"ReadIndex", func(r io.Reader) error { _, err := ReadIndex(r); return err }},
		{"Read", func(r io.Reader) error { _, err := Read(r); return err }},
		{"Oracle", func(r io.Reader) error { _, err := ReadOracle(r); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(doc.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.read(bytes.NewReader(doc.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWrite writes a 50-trace loan log with Write, with WriteIndex
// from the log's Index (how the serving layer writes every response), and
// with the fmt-based writer Write replaced.
func BenchmarkWrite(b *testing.B) {
	log := procgen.LoanLog(50, 1)
	x := eventlog.NewIndex(log)
	b.Run("Write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := Write(io.Discard, log); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WriteIndex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := WriteIndex(io.Discard, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = writeOracle(log)
		}
	})
}
