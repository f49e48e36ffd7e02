// Package xes reads and writes event logs in the IEEE XES XML format, the
// interchange format of the public logs used in the paper's evaluation.
//
// Reading is one pass over the document's bytes: a scanner made for the
// subset below feeds an eventlog.Builder as it goes, so ReadIndex never
// builds a *Log, and Read is ReadIndex followed by ReconstructLog. The
// scanner accepts exactly what the encoding/xml struct decoder this package
// used before accepted, with the same result. That decoder is kept in
// oracle_test.go as the test oracle, and FuzzReadXES holds the two to each
// other. The accepted subset:
//
//   - The root element is <log>, matched on its local name, so a prefixed
//     or default-namespace root is accepted. Nothing after its end tag is
//     read.
//   - A <trace> child of the log and an <event> child of a trace are
//     structure. Every other child element is an attribute: its element
//     name (string, id, int, float, date, boolean; other kinds read as
//     strings) types the value in its value attribute, and its key
//     attribute names it. Log and trace children without a key, such as
//     extension, global and classifier, are skipped, and so is an <event>
//     directly under the log. The children of an attribute are ignored.
//   - concept:name names the log and each trace and is each event's class;
//     when it appears more than once, the last one wins. A trace without
//     one is named t<i> after its position; an event without one is an
//     error, as class-less events cannot take part in abstraction.
//   - The document must be well formed as encoding/xml checks it: end tags
//     match, attribute values are quoted with ' or ", references are the
//     five predefined entities or decimal and hex character references, and
//     the text is valid UTF-8 made of XML characters. In attribute values
//     "\r\n" reads as "\n". DOCTYPE and other directives, comments,
//     processing instructions and CDATA sections are skipped; an XML
//     declaration may only name version 1.0 and UTF-8.
//
// Write emits a minimal header and one element per attribute, with keys and
// values escaped for XML attribute values. WriteIndex writes the same bytes
// from an eventlog.Index, so a log held in its columnar form is never
// rebuilt as a *Log to be served; Write stays for *Log callers and as
// WriteIndex's test oracle.
package xes

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"

	"gecco/internal/eventlog"
)

// conceptName is the XES attribute carrying names of logs, traces & events.
const conceptName = "concept:name"

// timeTimestamp is the XES attribute carrying event timestamps.
const timeTimestamp = "time:timestamp"

// lifecycleTransition is the XES attribute carrying lifecycle states.
const lifecycleTransition = "lifecycle:transition"

// Read parses an XES document into a Log.
func Read(r io.Reader) (*eventlog.Log, error) {
	x, err := ReadIndex(r)
	if err != nil {
		return nil, err
	}
	return x.ReconstructLog(), nil
}

// ReadIndex parses an XES document straight into a columnar eventlog.Index:
// the scanner feeds an eventlog.Builder event by event and no *Log is
// built. Use it when the caller only needs the index (a core.Session, the
// serving layer); Read is the entry point when the Log itself is required.
func ReadIndex(r io.Reader) (*eventlog.Index, error) {
	src, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("xes: read: %w", err)
	}
	return ReadIndexBytes(src)
}

// ReadIndexBytes is ReadIndex over a document already in memory, without
// copying it first. The Index copies every string it keeps, so src may be
// reused once it returns.
func ReadIndexBytes(src []byte) (*eventlog.Index, error) {
	return scan(src)
}

// decodeValue types an attribute's value by its element name, the XES
// attribute kind. Kinds other than int, float, date and boolean (string,
// id, and containers such as list) keep the value as a string.
func decodeValue(kind, value string) (eventlog.Value, error) {
	switch kind {
	case "int":
		i, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return eventlog.Value{}, err
		}
		return eventlog.Int(i), nil
	case "float":
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return eventlog.Value{}, err
		}
		return eventlog.Float(f), nil
	case "date":
		t, err := parseXESTime(value)
		if err != nil {
			return eventlog.Value{}, err
		}
		return eventlog.Time(t), nil
	case "boolean":
		b, err := strconv.ParseBool(value)
		if err != nil {
			return eventlog.Value{}, err
		}
		return eventlog.Bool(b), nil
	}
	return eventlog.String(value), nil
}

func parseXESTime(s string) (time.Time, error) {
	for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02T15:04:05.000-07:00", "2006-01-02T15:04:05"} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("unrecognised timestamp %q", s)
}

// writeChunk is the number of bytes Write buffers before passing them on.
const writeChunk = 32 << 10

// Write serialises the log as an XES document.
func Write(w io.Writer, log *eventlog.Log) error {
	x := newWriter(w, log.Name, log.Attrs)
	for i := range log.Traces {
		tr := &log.Traces[i]
		x.buf = append(x.buf, "  <trace>\n"...)
		x.attrs("    ", tr.ID, tr.Attrs)
		for j := range tr.Events {
			ev := &tr.Events[j]
			x.buf = append(x.buf, "    <event>\n"...)
			x.attrs("      ", ev.Class, ev.Attrs)
			x.endEvent()
		}
		x.buf = append(x.buf, "  </trace>\n"...)
	}
	return x.end()
}

// WriteIndex serialises an indexed log as an XES document: the bytes Write
// writes for x.ReconstructLog(), without building that *Log. Each event's
// attributes are read from the index's columns in name order, the order in
// which Write sorts an event's attribute keys.
func WriteIndex(w io.Writer, x *eventlog.Index) error {
	cols := x.ColumnsByName()
	xw := newWriter(w, x.Name, x.LogAttrs())
	for t := 0; t < x.NumTraces(); t++ {
		xw.buf = append(xw.buf, "  <trace>\n"...)
		xw.attrs("    ", x.TraceID(t), x.TraceAttrs(t))
		pos := x.TraceStart(t)
		for _, c := range x.Seq(t) {
			xw.buf = append(xw.buf, "    <event>\n"...)
			xw.attr("      ", conceptName, eventlog.String(x.Classes[c]))
			for _, col := range cols {
				if v, ok := col.Value(pos); ok {
					xw.attr("      ", col.Name(), v)
				}
			}
			xw.endEvent()
			pos++
		}
		xw.buf = append(xw.buf, "  </trace>\n"...)
	}
	return xw.end()
}

// writer appends the document to buf and hands it to w in chunks; the
// first write error ends the output.
type writer struct {
	w    io.Writer
	buf  []byte
	keys []string
	err  error
}

// newWriter starts a document: the header, then the log's name and
// attributes.
func newWriter(w io.Writer, name string, attrs map[string]eventlog.Value) *writer {
	x := &writer{w: w, buf: make([]byte, 0, writeChunk+4<<10)}
	x.buf = append(x.buf, "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<log xes.version=\"1.0\" xes.features=\"\">\n"...)
	x.attrs("  ", name, attrs)
	return x
}

// endEvent closes an event element, passing the buffer on once it holds a
// chunk.
func (x *writer) endEvent() {
	x.buf = append(x.buf, "    </event>\n"...)
	if len(x.buf) >= writeChunk {
		x.flush()
	}
}

// end closes the document and reports the first write error.
func (x *writer) end() error {
	x.buf = append(x.buf, "</log>\n"...)
	x.flush()
	return x.err
}

func (x *writer) flush() {
	if x.err == nil {
		_, x.err = x.w.Write(x.buf)
	}
	x.buf = x.buf[:0]
}

// attrs writes the concept:name attribute carrying name, then the
// attributes in key order.
func (x *writer) attrs(indent, name string, attrs map[string]eventlog.Value) {
	x.attr(indent, conceptName, eventlog.String(name))
	x.keys = sortedKeys(x.keys, attrs)
	for _, k := range x.keys {
		x.attr(indent, k, attrs[k])
	}
}

// attr writes one attribute element. A value of no kind is not written.
func (x *writer) attr(indent, key string, v eventlog.Value) {
	var kind string
	switch v.Kind {
	case eventlog.KindString:
		kind = "string"
	case eventlog.KindInt:
		kind = "int"
	case eventlog.KindFloat:
		kind = "float"
	case eventlog.KindTime:
		kind = "date"
	case eventlog.KindBool:
		kind = "boolean"
	default:
		return
	}
	switch key {
	case eventlog.AttrTimestamp:
		key = timeTimestamp
	case eventlog.AttrLifecycle:
		key = lifecycleTransition
	}
	b := append(x.buf, indent...)
	b = append(b, '<')
	b = append(b, kind...)
	b = append(b, ` key="`...)
	b = appendEscaped(b, key)
	b = append(b, `" value="`...)
	switch v.Kind {
	case eventlog.KindString:
		b = appendEscaped(b, v.Str)
	case eventlog.KindInt:
		b = strconv.AppendInt(b, int64(v.Num), 10)
	case eventlog.KindFloat:
		b = strconv.AppendFloat(b, v.Num, 'g', -1, 64)
	case eventlog.KindTime:
		b = v.Time.AppendFormat(b, time.RFC3339Nano)
	case eventlog.KindBool:
		b = strconv.AppendBool(b, v.Bool)
	}
	x.buf = append(b, "\"/>\n"...)
}

// appendEscaped appends s escaped for a double-quoted XML attribute value:
// the markup characters & < > " as entities, and tab, newline and carriage
// return as character references, so that they survive attribute-value
// normalisation. Other control characters, and bytes that are not UTF-8,
// cannot appear in an XML 1.0 document at all, even as references; they are
// written as utf8.RuneError. Any other text is copied as is.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '&' && c != '<' && c != '>' && c != '"' {
			i++
			continue
		}
		esc, width := "", 1
		switch c {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&quot;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if c >= utf8.RuneSelf {
				r, n := utf8.DecodeRuneInString(s[i:])
				if (r != utf8.RuneError || n > 1) && isXMLChar(r) {
					i += n
					continue
				}
				width = n
			}
			esc = string(utf8.RuneError)
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, esc...)
		i += width
		start = i
	}
	return append(dst, s[start:]...)
}

// sortedKeys returns the keys of m in order, reusing dst's storage.
func sortedKeys(dst []string, m map[string]eventlog.Value) []string {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	sort.Strings(dst)
	return dst
}
