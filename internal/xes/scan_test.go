package xes_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gecco/internal/abstraction"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
	"gecco/internal/service"
	"gecco/internal/xes"
)

// fails is the want of a scan case that both readers must reject.
const fails = "<error>"

// scanCases pin the scanner to the oracle on the edges of the accepted
// subset. want is the summary of the log read, or fails. The cases also
// seed FuzzReadXES.
var scanCases = []struct{ name, doc, want string }{
	{"content after the root is ignored",
		`<log><trace><event><string key="concept:name" value="a"/></event></trace></log><after> & <<`,
		" | t0: a"},
	{"doctype, comments, processing instructions and CDATA are skipped",
		`<?xml version="1.0" encoding="utf-8"?><!DOCTYPE log [<!ELEMENT log ANY><!-- <x> -->]><!-- c --><log><?app data?><![CDATA[<not-a-tag> & ]]><trace><event><!--x--><string key="concept:name" value="a"/></event></trace></log>`,
		" | t0: a"},
	{"prefixed root",
		`<x:log xmlns:x="http://www.xes-standard.org/"><x:trace><x:event><x:string x:key="concept:name" value="a"/></x:event></x:trace></x:log>`,
		" | t0: a"},
	{"default-namespace root",
		`<log xmlns="http://www.xes-standard.org/"><trace><event><string key="concept:name" value="a"/></event></trace></log>`,
		" | t0: a"},
	{"single and double quotes",
		`<log><trace><event><string key='concept:name' value='say "hi"'/><string key="q" value="it's"/></event></trace></log>`,
		` | t0: say "hi"{q=it's}`},
	{"entity and character references",
		`<log><trace><event><string key="concept:name" value="&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x1F600;"/></event></trace></log>`,
		" | t0: <>&'\"AB\U0001F600"},
	{"carriage returns in values",
		"<log><trace><event><string key=\"concept:name\" value=\"a\r\nb\rc\"/></event></trace></log>",
		" | t0: a\nb\nc"},
	{"children of an attribute are ignored",
		`<log><trace><event><string key="concept:name" value="a"><string key="x" value="y"/>text</string></event></trace></log>`,
		" | t0: a"},
	{"an event directly under the log is ignored",
		`<log><event><string key="concept:name" value="b"/></event><trace><event><string key="concept:name" value="a"/></event></trace></log>`,
		" | t0: a"},
	{"traces without concept:name are numbered",
		`<log><trace><event><string key="concept:name" value="a"/></event></trace><trace><string key="concept:name" value="named"/><event><string key="concept:name" value="b"/></event></trace><trace><event><string key="concept:name" value="c"/></event></trace></log>`,
		" | t0: a | named: b | t2: c"},
	{"the last concept:name wins",
		`<log><string key="concept:name" value="x"/><string key="concept:name" value="log"/><trace><string key="concept:name" value="1"/><event><string key="concept:name" value="a"/><string key="concept:name" value="b"/></event><string key="concept:name" value="2"/></trace></log>`,
		"log | 2: b"},
	{"attribute kinds",
		`<log><int key="version" value="7"/><extension name="Concept" prefix="concept"/><trace><string key="concept:name" value="c"/><float key="amount" value="99.5"/><event><string key="concept:name" value="a"/><date key="time:timestamp" value="2022-03-01T08:30:00.5+02:00"/><boolean key="ok" value="true"/><id key="ref" value="r1"/><list key="l" value="v"/><int key="n" value="-3"/><string key="lifecycle:transition" value="complete"/></event></trace></log>`,
		"{version=7} | c{amount=99.5}: a{l=v,lifecycle=complete,n=-3,ok=true,ref=r1,time=2022-03-01T08:30:00+02:00}"},
	{"empty log", `<log/>`, ""},
	{"wrong root", `<logs><trace/></logs>`, fails},
	{"mismatched end tag", `<log><trace></event></log>`, fails},
	{"unknown entity",
		`<log><trace><event><string key="concept:name" value="&nbsp;"/></event></trace></log>`, fails},
	{"unescaped < in a value",
		`<log><trace><event><string key="concept:name" value="a<b"/></event></trace></log>`, fails},
	{"event without concept:name",
		`<log><trace><event><string key="x" value="y"/></event></trace></log>`, fails},
}

func TestScannerMatchesOracle(t *testing.T) {
	for _, tc := range scanCases {
		t.Run(tc.name, func(t *testing.T) {
			log, err := readBoth(t, []byte(tc.doc))
			switch {
			case tc.want == fails:
				if err == nil {
					t.Fatalf("read %q, want an error", summary(log))
				}
			case err != nil:
				t.Fatal(err)
			case summary(log) != tc.want:
				t.Fatalf("read %q, want %q", summary(log), tc.want)
			}
		})
	}
}

// FuzzReadXES holds the scanner to the oracle on any input: both fail, or
// both read the same log with the same digest, and the index writes back
// as the log does. The seed corpus is testdata/fuzz/FuzzReadXES (see
// TestFuzzSeeds).
func FuzzReadXES(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		readBoth(t, data)
	})
}

// readBoth reads data with the scanner and with the oracle, and fails the
// test unless both fail or both succeed with equal logs and equal digests,
// and WriteIndex writes the scanner's index as Write writes the oracle's
// log. It returns the scanner's log or error.
func readBoth(t *testing.T, data []byte) (*eventlog.Log, error) {
	t.Helper()
	want, oerr := xes.ReadOracle(bytes.NewReader(data))
	x, err := xes.ReadIndex(bytes.NewReader(data))
	if (err == nil) != (oerr == nil) {
		t.Fatalf("scanner error: %v\noracle error: %v", err, oerr)
	}
	if err != nil {
		return nil, err
	}
	got := x.ReconstructLog()
	if d := logDiff(want, got); d != "" {
		t.Fatalf("scanner and oracle read different logs: %s", d)
	}
	if g, w := service.IndexDigest(x), service.LogDigest(want); g != w {
		t.Fatalf("scanner index digest %s, oracle log digest %s", g, w)
	}
	var fromIndex, fromLog bytes.Buffer
	if err := xes.WriteIndex(&fromIndex, x); err != nil {
		t.Fatal(err)
	}
	if err := xes.Write(&fromLog, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromIndex.Bytes(), fromLog.Bytes()) {
		t.Fatalf("WriteIndex wrote\n%s\nWrite wrote\n%s", fromIndex.Bytes(), fromLog.Bytes())
	}
	return got, nil
}

// logDiff describes the first difference between two logs, comparing
// values exactly: kinds, strings, float bits, instants and zone offsets.
func logDiff(a, b *eventlog.Log) string {
	if a.Name != b.Name {
		return fmt.Sprintf("log name %q vs %q", a.Name, b.Name)
	}
	if d := attrsDiff(a.Attrs, b.Attrs); d != "" {
		return "log " + d
	}
	if len(a.Traces) != len(b.Traces) {
		return fmt.Sprintf("%d vs %d traces", len(a.Traces), len(b.Traces))
	}
	for i := range a.Traces {
		ta, tb := &a.Traces[i], &b.Traces[i]
		if ta.ID != tb.ID {
			return fmt.Sprintf("trace %d ID %q vs %q", i, ta.ID, tb.ID)
		}
		if d := attrsDiff(ta.Attrs, tb.Attrs); d != "" {
			return fmt.Sprintf("trace %d %s", i, d)
		}
		if len(ta.Events) != len(tb.Events) {
			return fmt.Sprintf("trace %d: %d vs %d events", i, len(ta.Events), len(tb.Events))
		}
		for j := range ta.Events {
			ea, eb := &ta.Events[j], &tb.Events[j]
			if ea.Class != eb.Class {
				return fmt.Sprintf("trace %d event %d class %q vs %q", i, j, ea.Class, eb.Class)
			}
			if d := attrsDiff(ea.Attrs, eb.Attrs); d != "" {
				return fmt.Sprintf("trace %d event %d %s", i, j, d)
			}
		}
	}
	return ""
}

func attrsDiff(a, b map[string]eventlog.Value) string {
	if len(a) != len(b) {
		return fmt.Sprintf("attributes %v vs %v", a, b)
	}
	for _, k := range sortedKeys(a) {
		va := a[k]
		vb, ok := b[k]
		_, offA := va.Time.Zone()
		_, offB := vb.Time.Zone()
		if !ok || va.Kind != vb.Kind || va.Str != vb.Str || va.Bool != vb.Bool ||
			math.Float64bits(va.Num) != math.Float64bits(vb.Num) || !va.Time.Equal(vb.Time) || offA != offB {
			return fmt.Sprintf("attribute %q: %+v vs %+v", k, va, vb)
		}
	}
	return ""
}

// summary renders a log compactly: its name, then per trace the ID and its
// events' classes, each followed by its attributes in key order.
func summary(l *eventlog.Log) string {
	var b strings.Builder
	b.WriteString(l.Name + attrText(l.Attrs))
	for _, tr := range l.Traces {
		b.WriteString(" | " + tr.ID + attrText(tr.Attrs) + ":")
		for _, ev := range tr.Events {
			b.WriteString(" " + ev.Class + attrText(ev.Attrs))
		}
	}
	return b.String()
}

func attrText(m map[string]eventlog.Value) string {
	if len(m) == 0 {
		return ""
	}
	parts := make([]string, 0, len(m))
	for _, k := range sortedKeys(m) {
		parts = append(parts, k+"="+m[k].AsString())
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func sortedKeys(m map[string]eventlog.Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var updateSeeds = flag.Bool("update-seeds", false, "rewrite the FuzzReadXES seed corpus in testdata")

// TestFuzzSeeds keeps testdata/fuzz/FuzzReadXES equal to the seeds it is
// made of: every scan case, small logs of the procgen models, and the two
// shapes a served result takes beyond those: a start+complete abstracted
// log, which carries the lifecycle attribute, and a log with trace- and
// log-level attributes, which an infeasible result hands back. Run it with
// -update-seeds to rewrite the corpus.
func TestFuzzSeeds(t *testing.T) {
	type seed struct{ name, doc string }
	var seeds []seed
	for _, tc := range scanCases {
		seeds = append(seeds, seed{"case-" + seedName(tc.name), tc.doc})
	}
	for _, l := range []*eventlog.Log{procgen.RunningExampleTable1(), procgen.RunningExample(3, 1), procgen.LoanLog(2, 1), startCompleteLog(t), attributedLog()} {
		var b strings.Builder
		if err := xes.Write(&b, l); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, seed{"log-" + seedName(l.Name), b.String()})
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadXES")
	for _, s := range seeds {
		path := filepath.Join(dir, s.name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.doc)
		if *updateSeeds {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("seed %s is missing or stale; rewrite the corpus with go test ./internal/xes -run TestFuzzSeeds -update-seeds", path)
		}
	}
}

// startCompleteLog is the running example abstracted under start+complete.
func startCompleteLog(t *testing.T) *eventlog.Log {
	t.Helper()
	set, err := constraints.ParseSet("distinct(role) <= 1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(procgen.RunningExampleTable1(), set, core.Config{Strategy: abstraction.StartComplete})
	if err != nil || !res.Feasible {
		t.Fatalf("abstracting the running example: feasible=%v, %v", err == nil && res.Feasible, err)
	}
	return res.Abstracted
}

// attributedLog is a small running-example log with log- and trace-level
// attributes of every kind.
func attributedLog() *eventlog.Log {
	l := procgen.RunningExample(2, 2)
	l.Name = "trace and log attributes"
	l.SetAttr("source", eventlog.String("erp <7>"))
	l.SetAttr("version", eventlog.Int(7))
	for i := range l.Traces {
		l.Traces[i].SetAttr("amount", eventlog.Float(100.5*float64(i+1)))
		l.Traces[i].SetAttr("priority", eventlog.Bool(i == 0))
		l.Traces[i].SetAttr("opened", eventlog.Time(time.Date(2022, 3, 1, 8, i, 0, 0, time.FixedZone("", 7200))))
	}
	return l
}

// seedName turns a description into a file name.
func seedName(s string) string {
	s = strings.Map(func(r rune) rune {
		if 'a' <= r && r <= 'z' || '0' <= r && r <= '9' {
			return r
		}
		return '-'
	}, strings.ToLower(s))
	return strings.Trim(s, "-")
}
