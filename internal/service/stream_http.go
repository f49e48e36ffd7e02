package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/eventlog"
	"gecco/internal/pipeline"
	"gecco/internal/stream"
)

// maxStreamLineBytes caps one NDJSON line (a single trace) on POST /stream.
// The request body as a whole is unbounded — that is the point of
// streaming; memory is bounded by the window, not the stream length.
const maxStreamLineBytes = 1 << 20

// maxStreamWindow caps the window parameter: the abstractor allocates its
// ring buffer eagerly, so an unbounded client-supplied window would let a
// single request reserve arbitrary memory before any trace is read.
const maxStreamWindow = 100_000

// StreamEvent is one event on the /stream NDJSON wire. Attrs values may be
// strings, numbers, or booleans; timestamps ride in Time as RFC 3339.
type StreamEvent struct {
	Class string         `json:"class"`
	Time  string         `json:"time,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// StreamTrace is one NDJSON input line of POST /stream: a complete trace.
type StreamTrace struct {
	ID     string        `json:"id,omitempty"`
	Events []StreamEvent `json:"events"`
}

// StreamLine is one NDJSON output line of POST /stream: the abstraction of
// the corresponding input trace, or a terminal error. Regrouped marks
// arrivals that triggered a pipeline run on the window.
type StreamLine struct {
	ID        string        `json:"id,omitempty"`
	Events    []StreamEvent `json:"events,omitempty"`
	Regrouped bool          `json:"regrouped,omitempty"`
	Error     string        `json:"error,omitempty"`
}

// streamAck is the first NDJSON output line: it echoes the stream's pinned
// parameters (creation-time values; appends cannot change them).
type streamAck struct {
	Stream         string  `json:"stream,omitempty"`
	Created        bool    `json:"created"`
	Window         int     `json:"window"`
	RefreshEvery   int     `json:"refreshEvery"`
	DriftThreshold float64 `json:"driftThreshold"`
}

// toTrace validates and converts a wire trace into the event model.
func (wt *StreamTrace) toTrace(lineNo int) (eventlog.Trace, error) {
	tr := eventlog.Trace{ID: wt.ID}
	if len(wt.Events) == 0 {
		return tr, fmt.Errorf("line %d: trace has no events", lineNo)
	}
	for i, we := range wt.Events {
		if we.Class == "" {
			return tr, fmt.Errorf("line %d: event %d has no class", lineNo, i+1)
		}
		ev := eventlog.Event{Class: we.Class}
		if we.Time != "" {
			ts, err := time.Parse(time.RFC3339Nano, we.Time)
			if err != nil {
				return tr, fmt.Errorf("line %d: event %d: time %q is not RFC 3339", lineNo, i+1, we.Time)
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
				return tr, fmt.Errorf("line %d: event %d: attribute %q must be a string, number, or boolean", lineNo, i+1, k)
			}
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr, nil
}

// fromTrace renders an abstracted (or passed-through) trace as an output
// line. Attribute maps serialise with sorted keys (encoding/json), so the
// line bytes are deterministic.
func fromTrace(tr eventlog.Trace, regrouped bool) StreamLine {
	line := StreamLine{ID: tr.ID, Regrouped: regrouped}
	for i := range tr.Events {
		ev := &tr.Events[i]
		we := StreamEvent{Class: ev.Class}
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

// buildLiveStream parses the creation query parameters into a live stream.
// Parameters are pinned at creation; later appends to the same name ignore
// them (the ack line echoes the pinned values).
func buildLiveStream(s *Service, name string, q url.Values) (*liveStream, error) {
	text := q.Get("constraints")
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("%w: creating a stream requires the constraints parameter", ErrInvalidRequest)
	}
	set, err := constraints.ParseSet(text)
	if err != nil {
		return nil, fmt.Errorf("%w: parsing constraints: %v", ErrInvalidRequest, err)
	}
	cfg := stream.Config{
		DriftThreshold: stream.DefaultDriftThreshold,
		RunPipeline:    s.streamPipeline,
	}
	solver := pipeline.StageSpec{Mode: q.Get("mode")}
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"window", &cfg.WindowSize},
		{"refresh", &cfg.RefreshEvery},
		{"workers", &solver.Workers},
		{"beamWidth", &solver.BeamWidth},
		{"maxChecks", &solver.MaxChecks},
	} {
		raw := q.Get(p.name)
		if raw == "" {
			continue
		}
		n, err := strconv.Atoi(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: query parameter %s=%q is not an integer", ErrInvalidRequest, p.name, raw)
		}
		if n < 0 {
			return nil, fmt.Errorf("%w: query parameter %s=%d must not be negative", ErrInvalidRequest, p.name, n)
		}
		*p.dst = n
	}
	if cfg.WindowSize > maxStreamWindow {
		return nil, fmt.Errorf("%w: window %d exceeds the maximum of %d traces", ErrInvalidRequest, cfg.WindowSize, maxStreamWindow)
	}
	if raw := q.Get("drift"); raw != "" {
		// NaN and ±Inf parse, but the ack line could not echo them:
		// encoding/json refuses non-finite floats.
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("%w: query parameter drift=%q is not a number (negative disables drift detection)", ErrInvalidRequest, raw)
		}
		cfg.DriftThreshold = f
	}
	if cfg.Pipeline, err = solver.SolverConfig(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return &liveStream{
		name:        name,
		constraints: text,
		abst:        stream.New(set, cfg),
		created:     time.Now(),
	}, nil
}

// handleStream serves POST /stream: NDJSON traces in, NDJSON abstractions
// out, one line per arrival, flushed as they are produced. A `stream` query
// parameter names a persistent stream (create-or-append; state survives
// across requests in the bounded LRU until closed or evicted); without it
// the stream lives for this one request. Malformed input and push failures
// terminate the response with an error line — the HTTP status is already
// committed by then, so NDJSON consumers must treat a line with `error` as
// the terminal event.
func handleStream(s *Service, w http.ResponseWriter, r *http.Request) {
	if s.streams == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("streaming is disabled on this server"))
		return
	}
	q := r.URL.Query()
	name := q.Get("stream")
	st, created, err := s.streams.ensure(name, func() (*liveStream, error) {
		return buildLiveStream(s, name, q)
	})
	if err != nil {
		writeRunError(w, r, err)
		return
	}
	if name == "" {
		defer s.streams.retireAnonymous(st)
	}

	// Without full-duplex, net/http drains the unread request body on the
	// handler's first response write (deadlocking against a client that
	// streams arrivals and reads results as they come); with it, reading
	// the body and writing responses interleave freely.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(v any) {
		enc.Encode(v)
		rc.Flush()
	}
	cfg := st.abst.Config()
	emit(streamAck{
		Stream:         name,
		Created:        created,
		Window:         cfg.WindowSize,
		RefreshEvery:   cfg.RefreshEvery,
		DriftThreshold: cfg.DriftThreshold,
	})

	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxStreamLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var wt StreamTrace
		if err := json.Unmarshal(raw, &wt); err != nil {
			emit(StreamLine{Error: fmt.Sprintf("line %d: %v", lineNo, err)})
			return
		}
		tr, err := wt.toTrace(lineNo)
		if err != nil {
			emit(StreamLine{Error: err.Error()})
			return
		}
		out, regrouped, err := st.push(r.Context(), tr)
		if err != nil {
			emit(StreamLine{Error: fmt.Sprintf("line %d: %v", lineNo, err)})
			return
		}
		emit(fromTrace(out, regrouped))
	}
	if err := sc.Err(); err != nil {
		emit(StreamLine{Error: fmt.Sprintf("reading stream: %v", err)})
	}
}

// handleStreamGet serves GET /stream/{name}: a snapshot of a live stream.
func handleStreamGet(s *Service, w http.ResponseWriter, r *http.Request) {
	if s.streams == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("streaming is disabled on this server"))
		return
	}
	st, ok := s.streams.get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: stream %q", ErrNotFound, r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, st.snapshot())
}

// handleStreamClose serves POST /stream/{name}/close: drops the named
// stream's state and returns its final snapshot.
func handleStreamClose(s *Service, w http.ResponseWriter, r *http.Request) {
	if s.streams == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("streaming is disabled on this server"))
		return
	}
	st, ok := s.streams.close(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: stream %q", ErrNotFound, r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, st.snapshot())
}
