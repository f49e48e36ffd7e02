package xes

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gecco/internal/eventlog"
)

// The encoding/xml struct decoder and the fmt-based writer this package
// used before the scanner and the append-based writer. They are the
// oracles the new code is tested against.

type oracleAttr struct {
	XMLName xml.Name
	Key     string `xml:"key,attr"`
	Value   string `xml:"value,attr"`
}

type oracleEvent struct {
	Attrs []oracleAttr `xml:",any"`
}

// oracleTrace takes the <event> children in Events and every other child
// element, of any attribute kind, in Attrs.
type oracleTrace struct {
	Attrs  []oracleAttr  `xml:",any"`
	Events []oracleEvent `xml:"event"`
}

// oracleLog likewise; Attrs also receives the header elements (extension,
// global, classifier), which carry no key and are skipped.
type oracleLog struct {
	XMLName xml.Name      `xml:"log"`
	Attrs   []oracleAttr  `xml:",any"`
	Traces  []oracleTrace `xml:"trace"`
}

// ReadOracle parses an XES document with the encoding/xml decoder. The
// scanner must fail exactly where it fails and read the same log elsewhere.
func ReadOracle(r io.Reader) (*eventlog.Log, error) {
	var doc oracleLog
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("xes: decode: %w", err)
	}
	log := &eventlog.Log{}
	for _, a := range doc.Attrs {
		switch {
		case a.Key == "":
		case a.Key == conceptName:
			log.Name = a.Value
		default:
			v, err := decodeValue(a.XMLName.Local, a.Value)
			if err != nil {
				return nil, fmt.Errorf("xes: log attr %q: %w", a.Key, err)
			}
			log.SetAttr(a.Key, v)
		}
	}
	for ti, t := range doc.Traces {
		trace := eventlog.Trace{ID: fmt.Sprintf("t%d", ti)}
		for _, a := range t.Attrs {
			switch {
			case a.Key == "":
			case a.Key == conceptName:
				trace.ID = a.Value
			default:
				v, err := decodeValue(a.XMLName.Local, a.Value)
				if err != nil {
					return nil, fmt.Errorf("xes: trace %d attr %q: %w", ti, a.Key, err)
				}
				trace.SetAttr(a.Key, v)
			}
		}
		for ei, e := range t.Events {
			ev := eventlog.Event{}
			for _, a := range e.Attrs {
				v, err := decodeValue(a.XMLName.Local, a.Value)
				if err != nil {
					return nil, fmt.Errorf("xes: trace %d event %d attr %q: %w", ti, ei, a.Key, err)
				}
				switch a.Key {
				case conceptName:
					ev.Class = v.Str
				case timeTimestamp:
					ev.SetAttr(eventlog.AttrTimestamp, v)
				case lifecycleTransition:
					ev.SetAttr(eventlog.AttrLifecycle, v)
				default:
					ev.SetAttr(a.Key, v)
				}
			}
			if ev.Class == "" {
				return nil, fmt.Errorf("xes: trace %d event %d: missing %s", ti, ei, conceptName)
			}
			trace.Events = append(trace.Events, ev)
		}
		log.Traces = append(log.Traces, trace)
	}
	return log, nil
}

// writeOracle serialises the log the way Write did before it escaped for
// XML: every key and string value quoted with %q. The two agree byte for
// byte on values without & < > " \ or control characters.
func writeOracle(log *eventlog.Log) string {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	attrs := func(indent string, m map[string]eventlog.Value) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			v := m[key]
			switch key {
			case eventlog.AttrTimestamp:
				key = timeTimestamp
			case eventlog.AttrLifecycle:
				key = lifecycleTransition
			}
			switch v.Kind {
			case eventlog.KindString:
				p("%s<string key=%q value=%q/>\n", indent, key, v.Str)
			case eventlog.KindInt:
				p("%s<int key=%q value=\"%d\"/>\n", indent, key, int64(v.Num))
			case eventlog.KindFloat:
				p("%s<float key=%q value=\"%g\"/>\n", indent, key, v.Num)
			case eventlog.KindTime:
				p("%s<date key=%q value=%q/>\n", indent, key, v.Time.Format(time.RFC3339Nano))
			case eventlog.KindBool:
				p("%s<boolean key=%q value=\"%t\"/>\n", indent, key, v.Bool)
			}
		}
	}
	p("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n")
	p("<log xes.version=\"1.0\" xes.features=\"\">\n")
	p("  <string key=\"concept:name\" value=%q/>\n", log.Name)
	attrs("  ", log.Attrs)
	for i := range log.Traces {
		tr := &log.Traces[i]
		p("  <trace>\n    <string key=\"concept:name\" value=%q/>\n", tr.ID)
		attrs("    ", tr.Attrs)
		for j := range tr.Events {
			ev := &tr.Events[j]
			p("    <event>\n")
			p("      <string key=\"concept:name\" value=%q/>\n", ev.Class)
			attrs("      ", ev.Attrs)
			p("    </event>\n")
		}
		p("  </trace>\n")
	}
	p("</log>\n")
	return b.String()
}
