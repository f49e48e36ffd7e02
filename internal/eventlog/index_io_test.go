package eventlog_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gecco/internal/eventlog"
	"gecco/internal/procgen"
	"gecco/internal/xes"
)

// gnarlyLog exercises every corner the procgen logs do not: Int and Bool
// values, a mixed-kind column, non-UTC fixed zones, sub-second timestamps,
// trace- and log-level attributes, an empty trace, and duplicate trace ids.
func gnarlyLog() *eventlog.Log {
	cet := time.FixedZone("", 3600)
	ist := time.FixedZone("", -12600)
	log := &eventlog.Log{Name: "gnarly"}
	log.SetAttr("source", eventlog.String("unit-test"))
	log.SetAttr("rev", eventlog.Int(42))

	t0 := eventlog.Trace{ID: "t0"}
	t0.SetAttr("variant-cost", eventlog.Float(1.25))
	t0.Events = []eventlog.Event{
		{Class: "a"}, {Class: "b"}, {Class: "a"},
	}
	t0.Events[0].SetAttr("n", eventlog.Int(7))
	t0.Events[0].SetAttr("ok", eventlog.Bool(true))
	t0.Events[0].SetAttr(eventlog.AttrTimestamp, eventlog.Time(time.Date(2021, 6, 1, 8, 30, 0, 123456789, cet)))
	t0.Events[1].SetAttr("n", eventlog.String("seven")) // mixed-kind column
	t0.Events[1].SetAttr("ok", eventlog.Bool(false))
	t0.Events[2].SetAttr(eventlog.AttrTimestamp, eventlog.Time(time.Date(2021, 6, 1, 9, 0, 0, 0, ist)))

	t1 := eventlog.Trace{ID: "t0"} // duplicate id on purpose
	t1.Events = []eventlog.Event{{Class: "c"}}
	t1.Events[0].SetAttr("n", eventlog.Float(2.5))

	t2 := eventlog.Trace{ID: "empty"} // no events

	log.Traces = []eventlog.Trace{t0, t1, t2}
	return log
}

func ioTestLogs() map[string]*eventlog.Log {
	return map[string]*eventlog.Log{
		"gnarly":  gnarlyLog(),
		"loan":    procgen.LoanLog(60, 11),
		"running": procgen.RunningExample(40, 7),
		"empty":   {Name: "void"},
	}
}

func encode(t *testing.T, x *eventlog.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eventlog.WriteIndex(&buf, x); err != nil {
		t.Fatalf("WriteIndex: %v", err)
	}
	return buf.Bytes()
}

func writeXES(t *testing.T, log *eventlog.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := xes.Write(&buf, log); err != nil {
		t.Fatalf("xes.Write: %v", err)
	}
	return buf.Bytes()
}

// TestIndexRoundTrip pins the core format contract through ReadIndex and
// through a file opened with OpenIndex: write → read → write reproduces the
// file byte for byte, and the reopened index reconstructs a log that
// serialises identically to the original.
func TestIndexRoundTrip(t *testing.T) {
	for name, log := range ioTestLogs() {
		t.Run(name, func(t *testing.T) {
			x := eventlog.NewIndex(log)
			data := encode(t, x)
			wantXES := writeXES(t, log)

			readBack, err := eventlog.ReadIndex(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatalf("ReadIndex: %v", err)
			}
			if !bytes.Equal(encode(t, readBack), data) {
				t.Error("ReadIndex → WriteIndex is not byte-identical")
			}
			if got := writeXES(t, readBack.ReconstructLog()); !bytes.Equal(got, wantXES) {
				t.Error("ReadIndex: reconstructed log serialises differently")
			}

			path := filepath.Join(t.TempDir(), "log.gidx")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			opened, err := eventlog.OpenIndex(path)
			if err != nil {
				t.Fatalf("OpenIndex: %v", err)
			}
			if !bytes.Equal(encode(t, opened), data) {
				t.Error("OpenIndex → WriteIndex is not byte-identical")
			}
			if got := writeXES(t, opened.ReconstructLog()); !bytes.Equal(got, wantXES) {
				t.Error("OpenIndex: reconstructed log serialises differently")
			}
			if opened.EstimatedBytes() <= 0 && opened.NumEvents() > 0 {
				t.Error("EstimatedBytes not positive")
			}
		})
	}
}

// TestColumnAccessorsAfterOpen compares every per-position column read of
// an index opened from its file against the freshly built one — decoded
// columns must be indistinguishable from built ones.
func TestColumnAccessorsAfterOpen(t *testing.T) {
	log := gnarlyLog()
	x := eventlog.NewIndex(log)
	path := filepath.Join(t.TempDir(), "log.gidx")
	if err := os.WriteFile(path, encode(t, x), 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := eventlog.OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, attr := range []string{"n", "ok", eventlog.AttrTimestamp, "absent"} {
		a, b := x.Column(attr), opened.Column(attr)
		if (a == nil) != (b == nil) {
			t.Fatalf("column %q: presence differs after open", attr)
		}
		if a == nil {
			continue
		}
		if a.StringsOnly() != b.StringsOnly() || a.NumCodes() != b.NumCodes() {
			t.Errorf("column %q: shape differs after open", attr)
		}
		for pos := 0; pos < x.NumEvents(); pos++ {
			if a.Has(pos) != b.Has(pos) || a.KindAt(pos) != b.KindAt(pos) {
				t.Fatalf("column %q pos %d: presence/kind differ", attr, pos)
			}
			av, aok := a.Value(pos)
			bv, bok := b.Value(pos)
			if aok != bok || av.Kind != bv.Kind || av.AsString() != bv.AsString() {
				t.Fatalf("column %q pos %d: Value differs (%v vs %v)", attr, pos, av, bv)
			}
			ak, aok := a.Key(pos)
			bk, bok := b.Key(pos)
			if aok != bok || ak != bk {
				t.Fatalf("column %q pos %d: Key differs (%q vs %q)", attr, pos, ak, bk)
			}
			if av.Kind == eventlog.KindTime && !av.Time.Equal(bv.Time) {
				t.Fatalf("column %q pos %d: Time differs", attr, pos)
			}
		}
	}
	if got := opened.ClassAttrValues("n"); len(got) != x.NumClasses() {
		t.Fatalf("ClassAttrValues over mapped column: %d classes", len(got))
	}
}

// TestIndexCorruption fuzzes the decoder with truncations and single-byte
// flips across the whole file: decoding must never panic, and any mutation
// that still decodes must decode to the same index (flips that land in
// padding or ignored header fields are the only survivors).
func TestIndexCorruption(t *testing.T) {
	x := eventlog.NewIndex(gnarlyLog())
	data := encode(t, x)

	open := func(b []byte) (ix *eventlog.Index, err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode panicked: %v", r)
			}
		}()
		return eventlog.ReadIndex(bytes.NewReader(b), int64(len(b)))
	}

	for n := 0; n < len(data); n += 7 {
		if _, err := open(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}

	for i := 0; i < len(data); i += 3 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		got, err := open(mut)
		if err != nil {
			continue // rejected cleanly: the common case
		}
		if !bytes.Equal(encode(t, got), data) {
			t.Fatalf("flip at byte %d decoded to a different index", i)
		}
	}
}

// TestIndexErrorKinds pins the sentinel errors the spec promises.
func TestIndexErrorKinds(t *testing.T) {
	x := eventlog.NewIndex(gnarlyLog())
	data := encode(t, x)

	notIndex := []byte("<?xml version=\"1.0\"?><log/>")
	if _, err := eventlog.ReadIndex(bytes.NewReader(notIndex), int64(len(notIndex))); !errors.Is(err, eventlog.ErrBadMagic) {
		t.Errorf("xml input: err = %v, want ErrBadMagic", err)
	}

	wrongVersion := append([]byte(nil), data...)
	wrongVersion[8] = 99
	if _, err := eventlog.ReadIndex(bytes.NewReader(wrongVersion), int64(len(wrongVersion))); !errors.Is(err, eventlog.ErrVersion) {
		t.Errorf("version 99: err = %v, want ErrVersion", err)
	}

	// Flip one payload byte past the table: CRC must catch it.
	tableEnd := 40 + int(uint32(data[16])|uint32(data[17])<<8)*32
	badSum := append([]byte(nil), data...)
	badSum[tableEnd+1] ^= 0xff
	if _, err := eventlog.ReadIndex(bytes.NewReader(badSum), int64(len(badSum))); !errors.Is(err, eventlog.ErrCorrupt) {
		t.Errorf("payload flip: err = %v, want ErrCorrupt", err)
	}

	path := filepath.Join(t.TempDir(), "trunc.gidx")
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := eventlog.OpenIndex(path); !errors.Is(err, eventlog.ErrCorrupt) {
		t.Errorf("truncated file via OpenIndex: err = %v, want ErrCorrupt", err)
	}
}
