package csvlog

import (
	"bytes"
	"strings"
	"testing"

	"gecco/internal/abstraction"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

const sampleCSV = `case,activity,time,role,cost
c1,register,2021-06-01T08:00:00Z,clerk,12.5
c1,approve,2021-06-01T09:00:00Z,manager,3
c2,register,2021-06-01T10:00:00Z,clerk,7
`

func TestReadSample(t *testing.T) {
	log, err := Read(strings.NewReader(sampleCSV), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(log.Traces))
	}
	if log.Traces[0].ID != "c1" || len(log.Traces[0].Events) != 2 {
		t.Fatalf("trace 0 = %+v", log.Traces[0])
	}
	ev := &log.Traces[0].Events[0]
	if ev.Class != "register" {
		t.Errorf("class = %q", ev.Class)
	}
	if _, ok := ev.Timestamp(); !ok {
		t.Error("time column not mapped to timestamp")
	}
	if v := ev.Attrs["cost"]; !v.IsNumeric() || v.Num != 12.5 {
		t.Errorf("cost = %+v", v)
	}
	if v := ev.Attrs["role"]; v.Str != "clerk" {
		t.Errorf("role = %+v", v)
	}
}

func TestCustomColumns(t *testing.T) {
	src := "id,act\n1,a\n1,b\n"
	log, err := Read(strings.NewReader(src), Options{CaseColumn: "id", ActivityColumn: "act"})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Traces) != 1 || log.Traces[0].Variant() != "a,b" {
		t.Fatalf("log = %+v", log)
	}
}

func TestMissingColumns(t *testing.T) {
	if _, err := Read(strings.NewReader("x,y\n1,2\n"), Options{}); err == nil {
		t.Fatal("expected error for missing case column")
	}
	if _, err := Read(strings.NewReader("case,y\n1,2\n"), Options{}); err == nil {
		t.Fatal("expected error for missing activity column")
	}
}

func TestRoundTrip(t *testing.T) {
	orig := procgen.RunningExampleTable1()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Traces) != len(orig.Traces) {
		t.Fatalf("trace count %d != %d", len(back.Traces), len(orig.Traces))
	}
	for i := range orig.Traces {
		if orig.Traces[i].Variant() != back.Traces[i].Variant() {
			t.Fatalf("trace %d variant mismatch", i)
		}
	}
	// Spot-check attribute fidelity.
	ov := orig.Traces[0].Events[0].Attrs[eventlog.AttrCost]
	bv := back.Traces[0].Events[0].Attrs[eventlog.AttrCost]
	if ov.Num != bv.Num {
		t.Fatalf("cost %f != %f", bv.Num, ov.Num)
	}
	if _, ok := back.Traces[0].Events[0].Timestamp(); !ok {
		t.Fatal("timestamp lost in round trip")
	}
}

func TestTypeInference(t *testing.T) {
	src := "case,activity,n,f,b,s\n1,a,42,1.5,true,hello\n"
	log, err := Read(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	at := log.Traces[0].Events[0].Attrs
	if at["n"].Kind != eventlog.KindInt {
		t.Errorf("n kind = %v", at["n"].Kind)
	}
	if at["f"].Kind != eventlog.KindFloat {
		t.Errorf("f kind = %v", at["f"].Kind)
	}
	if at["b"].Kind != eventlog.KindBool {
		t.Errorf("b kind = %v", at["b"].Kind)
	}
	if at["s"].Kind != eventlog.KindString {
		t.Errorf("s kind = %v", at["s"].Kind)
	}
}

func TestEmptyValuesSkipped(t *testing.T) {
	src := "case,activity,role\n1,a,\n"
	log, err := Read(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := log.Traces[0].Events[0].Attrs["role"]; ok {
		t.Fatal("empty cell should not create an attribute")
	}
}

// TestReadIndexMatchesRead pins the loader-direct path: building the
// columnar index straight from CSV rows must equal indexing the parsed Log,
// including interleaved case rows.
func TestReadIndexMatchesRead(t *testing.T) {
	const doc = `case,activity,time,amount,flag
c1,a,2021-06-01T08:00:00Z,5,true
c2,a,2021-06-01T08:05:00Z,,false
c1,b,2021-06-01T08:10:00Z,7.5,
c2,c,2021-06-01T08:15:00Z,x,true`
	log, err := Read(strings.NewReader(doc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ReadIndex(strings.NewReader(doc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaLog := eventlog.NewIndex(log)
	if direct.NumTraces() != 2 || direct.NumEvents() != 4 ||
		direct.NumClasses() != viaLog.NumClasses() {
		t.Fatalf("shape: traces=%d events=%d classes=%d", direct.NumTraces(), direct.NumEvents(), direct.NumClasses())
	}
	var a, b bytes.Buffer
	if err := Write(&a, direct.ReconstructLog()); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, log); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("reconstruction differs:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// FuzzReadCSV holds the index reader to the log reader on any input: both
// fail with the same error, or the log the index reconstructs writes the
// same CSV as Read's log, and WriteIndex writes the index as Write writes
// that log. The seeds are the documents of the tests above, interleaved
// cases, a quoted cell holding a newline, rows with a missing column, and
// the two shapes a served result takes beyond those: a start+complete
// abstracted log, which carries the lifecycle column, and a log with trace-
// and log-level attributes, which an infeasible result hands back (CSV
// writes its events only).
func FuzzReadCSV(f *testing.F) {
	set, err := constraints.ParseSet("distinct(role) <= 1")
	if err != nil {
		f.Fatal(err)
	}
	res, err := core.Run(procgen.RunningExampleTable1(), set, core.Config{Strategy: abstraction.StartComplete})
	if err != nil || !res.Feasible {
		f.Fatalf("abstracting the running example: %v", err)
	}
	attributed := procgen.RunningExample(2, 2)
	attributed.SetAttr("source", eventlog.String("erp"))
	for i := range attributed.Traces {
		attributed.Traces[i].SetAttr("amount", eventlog.Float(100.5*float64(i+1)))
	}
	var docs []string
	for _, l := range []*eventlog.Log{procgen.RunningExampleTable1(), res.Abstracted, attributed} {
		var b bytes.Buffer
		if err := Write(&b, l); err != nil {
			f.Fatal(err)
		}
		docs = append(docs, b.String())
	}
	for _, doc := range append(docs,
		sampleCSV,
		"id,act\n1,a\n1,b\n",
		"x,y\n1,2\n",
		"case,y\n1,2\n",
		"case,activity,n,f,b,s\n1,a,42,1.5,true,hello\n",
		"case,activity,role\n1,a,\n",
		"case,activity,time,amount,flag\nc1,a,2021-06-01T08:00:00Z,5,true\nc2,a,2021-06-01T08:05:00Z,,false\nc1,b,2021-06-01T08:10:00Z,7.5,\nc2,c,2021-06-01T08:15:00Z,x,true",
		"case,activity\nc1,a\nc2,b\nc1,c\nc3,a\nc2,a\nc1,b\n",
		"case,activity,note\nc1,a,\"two\nlines\"\nc1,b,plain\n",
		"case,activity,role,cost\nc1,a,clerk,3\nc1,b\nc2,a,manager\n",
		"case,activity,role\nc1,a,clerk\nc1\nc2,b,clerk\n",
	) {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		log, err := Read(bytes.NewReader(doc), Options{})
		x, xerr := ReadIndex(bytes.NewReader(doc), Options{})
		if (err == nil) != (xerr == nil) || err != nil && err.Error() != xerr.Error() {
			t.Fatalf("Read error: %v\nReadIndex error: %v", err, xerr)
		}
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := Write(&a, x.ReconstructLog()); err != nil {
			t.Fatal(err)
		}
		if err := Write(&b, log); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("reconstruction differs:\n%s\nvs\n%s", a.String(), b.String())
		}
		var c bytes.Buffer
		if err := WriteIndex(&c, x); err != nil {
			t.Fatal(err)
		}
		if c.String() != b.String() {
			t.Fatalf("WriteIndex wrote\n%s\nWrite wrote\n%s", c.String(), b.String())
		}
	})
}
