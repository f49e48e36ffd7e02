// Package csvlog reads and writes event logs as CSV, the other common
// interchange format for process-mining data. The expected shape is one
// event per row with at least a case-id column and an activity (class)
// column; additional columns become event attributes. Column types are
// inferred per column: RFC 3339 timestamps, numbers, booleans, else strings.
package csvlog

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"gecco/internal/eventlog"
)

// Options configures CSV import.
type Options struct {
	CaseColumn     string // default "case"
	ActivityColumn string // default "activity"
	TimeColumn     string // default "time"; parsed as the event timestamp
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.CaseColumn == "" {
		out.CaseColumn = "case"
	}
	if out.ActivityColumn == "" {
		out.ActivityColumn = "activity"
	}
	if out.TimeColumn == "" {
		out.TimeColumn = "time"
	}
	return out
}

// attrKV is one parsed attribute of a CSV row.
type attrKV struct {
	name string
	v    eventlog.Value
}

// row is one parsed event row, grouped by case before emission.
type row struct {
	class string
	attrs []attrKV
}

// readRows parses the CSV body into per-case event rows, preserving row
// order within each case and first-appearance order across cases.
func readRows(r io.Reader, opts Options) (caseOrder []string, byCase map[string][]row, err error) {
	opts = opts.withDefaults()
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("csvlog: read header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, h := range header {
		col[h] = i
	}
	caseIdx, ok := col[opts.CaseColumn]
	if !ok {
		return nil, nil, fmt.Errorf("csvlog: missing case column %q", opts.CaseColumn)
	}
	actIdx, ok := col[opts.ActivityColumn]
	if !ok {
		return nil, nil, fmt.Errorf("csvlog: missing activity column %q", opts.ActivityColumn)
	}

	byCase = make(map[string][]row)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("csvlog: line %d: %w", line, err)
		}
		if caseIdx >= len(rec) || actIdx >= len(rec) {
			return nil, nil, fmt.Errorf("csvlog: line %d: too few fields", line)
		}
		caseID := rec[caseIdx]
		ev := row{class: rec[actIdx]}
		for i, h := range header {
			if i == caseIdx || i == actIdx || i >= len(rec) || rec[i] == "" {
				continue
			}
			name := h
			if h == opts.TimeColumn {
				name = eventlog.AttrTimestamp
			}
			ev.attrs = append(ev.attrs, attrKV{name: name, v: inferValue(rec[i])})
		}
		if _, seen := byCase[caseID]; !seen {
			caseOrder = append(caseOrder, caseID)
		}
		byCase[caseID] = append(byCase[caseID], ev)
	}
	return caseOrder, byCase, nil
}

// Read parses CSV event data into a Log. Rows are grouped into traces by the
// case column, preserving row order within each case.
func Read(r io.Reader, opts Options) (*eventlog.Log, error) {
	caseOrder, byCase, err := readRows(r, opts)
	if err != nil {
		return nil, err
	}
	log := &eventlog.Log{}
	for _, id := range caseOrder {
		rows := byCase[id]
		tr := eventlog.Trace{ID: id, Events: make([]eventlog.Event, len(rows))}
		for i, rw := range rows {
			tr.Events[i].Class = rw.class
			for _, a := range rw.attrs {
				tr.Events[i].SetAttr(a.name, a.v)
			}
		}
		log.Traces = append(log.Traces, tr)
	}
	return log, nil
}

// ReadIndex parses CSV event data straight into a columnar eventlog.Index,
// feeding an eventlog.Builder trace by trace (rows are buffered per case
// first, since CSV rows of different cases may interleave). The result is
// identical to eventlog.NewIndex(Read(r, opts)) without the intermediate
// *Log's per-event attribute maps.
func ReadIndex(r io.Reader, opts Options) (*eventlog.Index, error) {
	caseOrder, byCase, err := readRows(r, opts)
	if err != nil {
		return nil, err
	}
	b := eventlog.NewBuilder()
	for _, id := range caseOrder {
		b.StartTrace(id)
		for _, rw := range byCase[id] {
			b.AddEvent(rw.class)
			for _, a := range rw.attrs {
				b.SetEventAttr(a.name, a.v)
			}
		}
	}
	return b.Build(), nil
}

func inferValue(s string) eventlog.Value {
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return eventlog.Time(t)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return eventlog.Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return eventlog.Float(f)
	}
	if s == "true" || s == "false" {
		return eventlog.Bool(s == "true")
	}
	return eventlog.String(s)
}

// Write serialises the log as CSV with columns case, activity, followed by
// the union of attribute names in sorted order.
func Write(w io.Writer, log *eventlog.Log) error {
	attrSet := make(map[string]struct{})
	for i := range log.Traces {
		for j := range log.Traces[i].Events {
			for k := range log.Traces[i].Events[j].Attrs {
				attrSet[k] = struct{}{}
			}
		}
	}
	attrs := make([]string, 0, len(attrSet))
	for k := range attrSet {
		attrs = append(attrs, k)
	}
	sort.Strings(attrs)

	cw := csv.NewWriter(w)
	header := append([]string{"case", "activity"}, attrs...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i := range log.Traces {
		tr := &log.Traces[i]
		for j := range tr.Events {
			ev := &tr.Events[j]
			row[0], row[1] = tr.ID, ev.Class
			for k, a := range attrs {
				if v, ok := ev.Attrs[a]; ok {
					row[2+k] = formatValue(v)
				} else {
					row[2+k] = ""
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteIndex serialises an indexed log as CSV: the bytes Write writes for
// x.ReconstructLog(), without building that *Log. The index's columns are
// the union of its events' attribute names.
func WriteIndex(w io.Writer, x *eventlog.Index) error {
	cols := x.ColumnsByName()
	cw := csv.NewWriter(w)
	row := make([]string, 2+len(cols))
	row[0], row[1] = "case", "activity"
	for k, col := range cols {
		row[2+k] = col.Name()
	}
	if err := cw.Write(row); err != nil {
		return err
	}
	for t := 0; t < x.NumTraces(); t++ {
		pos := x.TraceStart(t)
		for _, c := range x.Seq(t) {
			row[0], row[1] = x.TraceID(t), x.Classes[c]
			for k, col := range cols {
				row[2+k] = ""
				if v, ok := col.Value(pos); ok {
					row[2+k] = formatValue(v)
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
			pos++
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatValue(v eventlog.Value) string {
	switch v.Kind {
	case eventlog.KindTime:
		return v.Time.Format(time.RFC3339)
	default:
		return v.AsString()
	}
}
