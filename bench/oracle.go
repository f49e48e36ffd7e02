package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/pipeline"
	"gecco/internal/service"
)

// The oracles compare what the server answered with what the library
// computes for the same input. Both sides are reduced to a digest of their
// JSON form without the fields that legitimately differ between two correct
// answers: job IDs, cache and coalescing flags, and timings.

type digest [sha256.Size]byte

func digestOf(v any) (digest, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return digest{}, err
	}
	return sha256.Sum256(data), nil
}

// abstractDigest hashes a POST /abstract response body byte for byte, less
// the fields that differ between two correct answers: the leading jobId,
// state, cached and coalesced fields and the trailing timingsMs object.
// Cutting bytes instead of decoding keeps checking a megabyte response to
// a hash pass, and compares the wire bytes themselves. Neither marker can
// occur inside a JSON string, where quotes are escaped.
func abstractDigest(body []byte) (digest, error) {
	b := bytes.TrimSpace(body)
	i := bytes.Index(b, []byte(`"feasible":`))
	j := bytes.LastIndex(b, []byte(`,"timingsMs":`))
	if i < 0 || j < i {
		return digest{}, fmt.Errorf("not an /abstract response: %.200s", b)
	}
	return sha256.Sum256(b[i:j]), nil
}

// abstractResponse is the /abstract response for a library result whose
// abstracted log serialises to abstracted, less its per-request fields.
func abstractResponse(res *core.Result, abstracted string) service.AbstractResponse {
	r := service.AbstractResponse{
		State:              string(service.StateDone),
		Feasible:           res.Feasible,
		Distance:           res.Distance,
		GroupClasses:       res.GroupClasses,
		ActivityNames:      res.Grouping.Names,
		NumCandidates:      res.NumCandidates,
		CandidatesTimedOut: res.CandidatesTimedOut,
		ConstraintChecks:   res.ConstraintChecks,
		Abstracted:         abstracted,
	}
	if res.Diagnostics != nil {
		r.Diagnostics = res.Diagnostics.String()
	}
	return r
}

// expectedAbstract is the digest of the /abstract response the library
// result implies for an XES upload.
func expectedAbstract(res *core.Result) (digest, error) {
	text := ""
	if res.Abstracted != nil {
		var err error
		if text, err = writeXES(res.Abstracted); err != nil {
			return digest{}, err
		}
	}
	data, err := json.Marshal(abstractResponse(res, text))
	if err != nil {
		return digest{}, err
	}
	return abstractDigest(data)
}

// pipelineDigest normalises a POST /pipeline response body.
func pipelineDigest(body []byte) (digest, error) {
	var r service.PipelineResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return digest{}, fmt.Errorf("decoding /pipeline response: %w", err)
	}
	for i := range r.Stages {
		r.Stages[i].Cached, r.Stages[i].Ms = false, 0
	}
	return digestOf(r)
}

// pipelineResponse is the /pipeline response a library pipeline.Run result
// implies, normalised like pipelineDigest.
func pipelineResponse(out *pipeline.Result) service.PipelineResponse {
	r := service.PipelineResponse{}
	for _, st := range out.Stages {
		r.Stages = append(r.Stages, service.PipelineStageStatus{Stage: st.Stage, Key: st.Key})
	}
	s := out.State
	if s.Constraints != nil {
		for _, c := range s.Constraints.All() {
			r.Constraints = append(r.Constraints, c.String())
		}
	}
	if res := s.Abstraction; res != nil {
		r.Abstraction = &service.PipelineAbstraction{
			Feasible:      res.Feasible,
			Distance:      res.Distance,
			GroupClasses:  res.GroupClasses,
			ActivityNames: res.Grouping.Names,
		}
		if res.Diagnostics != nil {
			r.Abstraction.Diagnostics = res.Diagnostics.String()
		}
	}
	if m := s.Model; m != nil {
		r.Model = &service.PipelineModel{Activities: m.Labels, Edges: m.Graph.NumEdges(), CFC: m.CFC(), Size: m.Size()}
	}
	if c := s.Conformance; c != nil {
		r.Conformance = &service.PipelineConformance{Fitness: c.Fitness, Precision: c.Precision, Misfits: c.Misfits}
	}
	return r
}

// canonicalConstraints is the service's rendering of a constraint set in
// cache and chain keys: sorted constraint strings, one per line.
func canonicalConstraints(set *constraints.Set) string {
	parts := make([]string, 0, set.Len())
	for _, c := range set.All() {
		parts = append(parts, c.String())
	}
	sort.Strings(parts)
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	return b.String()
}

// mapStageCache is a plain map behind pipeline.StageCache, so the pipeline
// oracle computes each upstream stage once.
type mapStageCache map[string]*pipeline.State

func (m mapStageCache) Get(_, key string) (*pipeline.State, bool) {
	s, ok := m[key]
	return s, ok
}

func (m mapStageCache) Put(_, key string, s *pipeline.State) { m[key] = s }

// streamLineDigest normalises one POST /stream output line.
func streamLineDigest(line []byte) (digest, error) {
	var l service.StreamLine
	if err := json.Unmarshal(line, &l); err != nil {
		return digest{}, fmt.Errorf("decoding stream line: %w", err)
	}
	if l.Error != "" {
		return digest{}, fmt.Errorf("stream error line: %s", l.Error)
	}
	return digestOf(l)
}

// wireTrace converts a /stream input trace into the event model the way the
// server does.
func wireTrace(wt service.StreamTrace) (eventlog.Trace, error) {
	tr := eventlog.Trace{ID: wt.ID}
	for _, we := range wt.Events {
		ev := eventlog.Event{Class: we.Class}
		if we.Time != "" {
			ts, err := time.Parse(time.RFC3339Nano, we.Time)
			if err != nil {
				return tr, err
			}
			ev.SetAttr(eventlog.AttrTimestamp, eventlog.Time(ts))
		}
		for k, v := range we.Attrs {
			switch x := v.(type) {
			case string:
				ev.SetAttr(k, eventlog.String(x))
			case float64:
				ev.SetAttr(k, eventlog.Float(x))
			case bool:
				ev.SetAttr(k, eventlog.Bool(x))
			default:
				return tr, fmt.Errorf("attribute %q has type %T", k, v)
			}
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr, nil
}

// streamLineOf renders an abstracted trace as the /stream output line the
// server would send for it.
func streamLineOf(tr eventlog.Trace, regrouped bool) service.StreamLine {
	line := service.StreamLine{ID: tr.ID, Regrouped: regrouped}
	for i := range tr.Events {
		ev := &tr.Events[i]
		we := service.StreamEvent{Class: ev.Class}
		for k, v := range ev.Attrs {
			if k == eventlog.AttrTimestamp && v.Kind == eventlog.KindTime {
				we.Time = v.Time.Format(time.RFC3339Nano)
				continue
			}
			if we.Attrs == nil {
				we.Attrs = make(map[string]any, len(ev.Attrs))
			}
			switch v.Kind {
			case eventlog.KindString:
				we.Attrs[k] = v.Str
			case eventlog.KindInt, eventlog.KindFloat:
				we.Attrs[k] = v.Num
			case eventlog.KindBool:
				we.Attrs[k] = v.Bool
			case eventlog.KindTime:
				we.Attrs[k] = v.Time.Format(time.RFC3339Nano)
			}
		}
		line.Events = append(line.Events, we)
	}
	return line
}
