package service

import (
	"bytes"
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
// collection, and hand-built logs for the encodings most likely to drift.
func digestPinLogs() map[string]*eventlog.Log {
	base := time.Date(2024, 1, 1, 10, 0, 0, 0, time.UTC)
	event := func(class string, attrs map[string]eventlog.Value) eventlog.Event {
		return eventlog.Event{Class: class, Attrs: attrs}
	}
	logs := map[string]*eventlog.Log{
		"running example (Table I)": procgen.RunningExampleTable1(),
		"running example":           procgen.RunningExample(60, 7),
		"loan application":          procgen.LoanLog(60, 17),
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
	for _, l := range procgen.Collection() {
		logs[l.Name] = l
	}
	return logs
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
