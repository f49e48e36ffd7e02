package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/csvlog"
	"gecco/internal/eventlog"
	"gecco/internal/pipeline"
	"gecco/internal/xes"
)

// AbstractRequest is the JSON envelope accepted by POST /abstract. Raw XES
// or CSV bodies are also accepted (see Handler), with the remaining fields
// read from query parameters of the same names.
type AbstractRequest struct {
	// Format of Log: "xes" or "csv"; default sniffs XES for bodies
	// starting with '<'.
	Format string `json:"format,omitempty"`
	// Log is the event log serialised in Format.
	Log string `json:"log"`
	// Constraints holds newline-separated constraint declarations.
	Constraints string `json:"constraints"`
	// ConstraintSets, when non-empty, turns the request into a batch: each
	// entry is a full constraint set (newline-separated declarations), and
	// all of them are solved against the one uploaded log — the log is
	// parsed once and the solves share a live session, so set 2..N start
	// with the log's index and a warm distance memo. Mutually exclusive
	// with Constraints and Async. In the raw-body form, repeat the
	// constraints query parameter instead.
	ConstraintSets []string `json:"constraintSets,omitempty"`
	// Mode is "exh", "dfg" (default), or "dfgk".
	Mode string `json:"mode,omitempty"`
	// BeamWidth tunes dfgk; 0 means the paper's 5·|C_L|.
	BeamWidth int `json:"beamWidth,omitempty"`
	// Workers caps pipeline parallelism; 0 uses the server default.
	Workers int `json:"workers,omitempty"`
	// MaxChecks bounds candidate computation; 0 means unlimited.
	MaxChecks int `json:"maxChecks,omitempty"`
	// Strategy is "completion" (default) or "start-complete".
	Strategy string `json:"strategy,omitempty"`
	// Policy is "split" (default) or "whole".
	Policy string `json:"policy,omitempty"`
	// Solver is "bb" (default) or "mip".
	Solver string `json:"solver,omitempty"`
	// NamePrefix labels multi-class activities; default "Activity ".
	NamePrefix string `json:"namePrefix,omitempty"`
	// NameByClassAttr prefixes activity labels with the group's unique
	// value of this class-level attribute.
	NameByClassAttr string `json:"nameByClassAttr,omitempty"`
	// Async returns 202 with a job ID instead of blocking; poll
	// GET /jobs/{id} for the result.
	Async bool `json:"async,omitempty"`
	// OmitAbstracted drops the serialised abstracted log from the
	// response, leaving the grouping, distance, and counters — for callers
	// that only want the metrics, the serialisation is most of the
	// response's cost and nearly all of its bytes. A pure rendering
	// choice: it never affects the result cache key, and a poller can make
	// it per-poll with ?abstracted=false on GET /jobs/{id}. In the
	// raw-body form, pass abstracted=false as a query parameter.
	OmitAbstracted bool `json:"omitAbstracted,omitempty"`
}

// AbstractResponse is the JSON result of a finished abstraction.
type AbstractResponse struct {
	JobID     string `json:"jobId,omitempty"`
	State     string `json:"state,omitempty"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced,omitempty"`

	Feasible           bool       `json:"feasible"`
	Distance           float64    `json:"distance,omitempty"`
	GroupClasses       [][]string `json:"groupClasses,omitempty"`
	ActivityNames      []string   `json:"activityNames,omitempty"`
	NumCandidates      int        `json:"numCandidates"`
	CandidatesTimedOut bool       `json:"candidatesTimedOut,omitempty"`
	ConstraintChecks   int        `json:"constraintChecks"`
	Diagnostics        string     `json:"diagnostics,omitempty"`
	// Abstracted is the abstracted log, serialised in the request format.
	Abstracted string `json:"abstracted,omitempty"`
	TimingsMs  struct {
		Candidates float64 `json:"candidates"`
		Solve      float64 `json:"solve"`
		Abstract   float64 `json:"abstract"`
	} `json:"timingsMs"`
}

// BatchItem is one constraint set's outcome within a batch response.
type BatchItem struct {
	// Constraints echoes the set this item answers, so clients need not
	// rely on ordering alone.
	Constraints string `json:"constraints"`
	AbstractResponse
	// Error is set when this set's pipeline run failed; the other items are
	// unaffected.
	Error string `json:"error,omitempty"`
}

// BatchResponse is the JSON result of a batch POST /abstract.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST /abstract             run (or serve from cache) an abstraction
//	POST /pipeline             run a staged pipeline (filter, suggest,
//	                           abstract, discover, conform) with per-stage
//	                           caching; ?stages= carries the JSON stage list
//	GET  /jobs/{id}            poll a job
//	POST /jobs/{id}/cancel     cancel a queued or running job (asynchronous:
//	                           the response may still show it running; poll)
//	POST /stream               online abstraction: NDJSON traces in,
//	                           abstracted NDJSON out; ?stream= names a
//	                           persistent stream (create-or-append)
//	GET  /stream/{name}        snapshot a named stream
//	POST /stream/{name}/close  drop a named stream's state
//	GET  /healthz              liveness (200 while the process runs)
//	GET  /readyz               readiness (503 while draining, so routers
//	                           take the shard out of rotation)
//	GET  /stats                cache, session, stream, and job counters
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /abstract", func(w http.ResponseWriter, r *http.Request) { handleAbstract(s, w, r) })
	mux.HandleFunc("POST /pipeline", func(w http.ResponseWriter, r *http.Request) { handlePipeline(s, w, r) })
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleJob(s, w, r) })
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) { handleCancel(s, w, r) })
	mux.HandleFunc("POST /stream", func(w http.ResponseWriter, r *http.Request) { handleStream(s, w, r) })
	mux.HandleFunc("GET /stream/{name}", func(w http.ResponseWriter, r *http.Request) { handleStreamGet(s, w, r) })
	mux.HandleFunc("POST /stream/{name}/close", func(w http.ResponseWriter, r *http.Request) { handleStreamClose(s, w, r) })
	// Liveness and readiness are deliberately split: /healthz answers "is
	// the process alive" (restart me if not) and stays 200 through a drain,
	// while /readyz answers "should I receive new work" and flips to 503 the
	// moment StartDrain is called — so an orchestrator drains a shard without
	// killing its in-flight jobs.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

func handleAbstract(s *Service, w http.ResponseWriter, r *http.Request) {
	// Load-shed before reading and parsing up to 64 MiB of body: when the
	// queue is full the request would be rejected anyway (cache hits and
	// coalescing joins can slip through after a retry — they are cheap).
	if s.Busy() {
		writeRunError(w, r, ErrBusy)
		return
	}
	env, text, err := decodeAbstractRequest(s, w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(env.ConstraintSets) > 0 {
		handleBatch(s, w, r, env, text)
		return
	}
	req, err := buildRequest(s, env, text)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	if env.Async {
		snap, err := s.Submit(req)
		if err != nil {
			writeRunError(w, r, err)
			return
		}
		writeJSON(w, http.StatusAccepted, AbstractResponse{JobID: snap.ID, State: string(snap.State)})
		return
	}

	// The request context carries client disconnects: an abandoned last
	// waiter cancels the pipeline mid-frontier.
	res, meta, err := s.Do(r.Context(), req)
	if err != nil {
		writeRunError(w, r, err)
		return
	}
	resp, err := buildResponse(res, req.Tag, env.OmitAbstracted)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp.Cached = meta.Cached
	resp.Coalesced = meta.CoalescedInto
	resp.JobID = meta.JobID
	resp.State = string(StateDone)
	writeJSON(w, http.StatusOK, resp)
}

// writeRunError answers a request whose run failed or was never admitted:
// 400 for the client's mistake, 503 with Retry-After when the service is
// busy or closing, 499 when the client went away mid-run, 503 when the
// service cancelled the run under a connected client, and 500 otherwise.
func writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInvalidRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrBusy) || errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Server-side cancellation (admin cancel of a coalesced job,
		// shutdown) while the client is still connected.
		status = http.StatusServiceUnavailable
		if r.Context().Err() != nil {
			// The client went away: 499 is nginx's "client closed
			// request"; the response is unlikely to be seen, but logs
			// and tests observe the status.
			status = 499
		}
	}
	writeError(w, status, err)
}

// handleBatch solves every constraint set of the envelope against the one
// uploaded log. The log is parsed once; the solves run sequentially through
// the ordinary job machinery, so each can hit the result cache, coalesce
// with identical in-flight requests, and — crucially — sets 2..N reuse the
// live session the first solve admitted, skipping re-indexing and starting
// with a warm distance memo. Per-set failures are reported in place; they
// do not abort the rest of the batch.
func handleBatch(s *Service, w http.ResponseWriter, r *http.Request, env *AbstractRequest, text *logText) {
	if env.Async {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch requests cannot be async; poll per-set jobs individually instead"))
		return
	}
	if strings.TrimSpace(env.Constraints) != "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("use either constraints or constraintSets, not both"))
		return
	}
	base, err := buildRequest(s, env, text)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// buildRequest filled the digest (parsing at most once), so every
	// per-set request copy inherits it: N sets cost one SHA-256 pass and at
	// most one parse — zero parses when the wire-digest memo already knows
	// this upload.
	// Parse every set up front: a malformed set is the client's mistake and
	// fails the whole batch with 400 before any pipeline run is paid for.
	sets := make([]*constraints.Set, len(env.ConstraintSets))
	for i, src := range env.ConstraintSets {
		set, err := constraints.ParseSet(src)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("constraint set %d: %w", i+1, err))
			return
		}
		sets[i] = set
	}
	resp := BatchResponse{Results: make([]BatchItem, len(sets))}
	for i, set := range sets {
		item := &resp.Results[i]
		item.Constraints = env.ConstraintSets[i]
		req := base
		req.Constraints = set
		res, meta, err := s.Do(r.Context(), req)
		if err != nil {
			item.Error = err.Error()
			continue
		}
		built, err := buildResponse(res, req.Tag, env.OmitAbstracted)
		if err != nil {
			item.Error = err.Error()
			continue
		}
		built.Cached = meta.Cached
		built.Coalesced = meta.CoalescedInto
		built.JobID = meta.JobID
		built.State = string(StateDone)
		item.AbstractResponse = *built
	}
	writeJSON(w, http.StatusOK, resp)
}

func handleJob(s *Service, w http.ResponseWriter, r *http.Request) {
	format := strings.ToLower(r.URL.Query().Get("format"))
	if format != "" && format != "xes" && format != "csv" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want xes or csv)", format))
		return
	}
	q := r.URL.Query().Get("abstracted")
	snap, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJobSnapshot(w, snap, format, q == "false" || q == "0")
}

func handleCancel(s *Service, w http.ResponseWriter, r *http.Request) {
	snap, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJobSnapshot(w, snap, "", false)
}

// writeJobSnapshot renders a job; formatOverride lets a poller that
// coalesced onto a job submitted in the other wire format (the job's tag
// records the first submitter's) ask for its own via ?format=;
// omitAbstracted (?abstracted=false) drops the serialised log per poll.
func writeJobSnapshot(w http.ResponseWriter, snap JobSnapshot, formatOverride string, omitAbstracted bool) {
	resp := AbstractResponse{JobID: snap.ID, State: string(snap.State)}
	format := formatOverride
	if format == "" {
		format = snap.Tag
	}
	if format == "" {
		format = "xes"
	}
	if snap.State == StateDone && snap.Result != nil {
		built, err := buildResponse(snap.Result, format, omitAbstracted)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		built.JobID = snap.ID
		built.State = string(snap.State)
		resp = *built
	} else if snap.State == StateDone && snap.ResultEvicted {
		writeJSON(w, http.StatusGone, struct {
			AbstractResponse
			Error string `json:"error"`
		}{resp, "result evicted from job retention; re-POST the request (cached results are served instantly)"})
		return
	} else if snap.Err != nil {
		// A failed pipeline is a 500 so status-code-only pollers notice;
		// cancellation is a client-requested outcome and stays 200.
		status := http.StatusOK
		if snap.State == StateFailed {
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, struct {
			AbstractResponse
			Error string `json:"error"`
		}{resp, snap.Err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeAbstractRequest accepts either the JSON envelope or a raw XES/CSV
// body with query-parameter settings (curl-friendly). The log comes back
// as a logText; the envelope's Log field is left empty.
func decodeAbstractRequest(s *Service, w http.ResponseWriter, r *http.Request) (*AbstractRequest, *logText, error) {
	env := &AbstractRequest{}
	text, err := s.readUpload(w, r, env, &env.Log)
	if err != nil || isEnvelope(r) {
		return env, text, err
	}
	q := r.URL.Query()
	*env = AbstractRequest{
		Format:          q.Get("format"),
		Constraints:     q.Get("constraints"),
		Mode:            q.Get("mode"),
		Strategy:        q.Get("strategy"),
		Policy:          q.Get("policy"),
		Solver:          q.Get("solver"),
		NamePrefix:      q.Get("namePrefix"),
		NameByClassAttr: q.Get("nameByClassAttr"),
		Async:           q.Get("async") == "true",
		OmitAbstracted:  q.Get("abstracted") == "false" || q.Get("abstracted") == "0",
	}
	// A repeated constraints parameter is the raw-body batch form: each
	// value is a full constraint set, all solved against the one body.
	if cons := q["constraints"]; len(cons) > 1 {
		env.Constraints = ""
		env.ConstraintSets = cons
	}
	// Malformed numbers are a 400, not a silent zero: maxChecks=10k
	// falling back to 0 would mean *unlimited* budget.
	for _, p := range []struct {
		name string
		dst  *int
	}{{"beamWidth", &env.BeamWidth}, {"workers", &env.Workers}, {"maxChecks", &env.MaxChecks}} {
		raw := q.Get(p.name)
		if raw == "" {
			continue
		}
		n, err := strconv.Atoi(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("query parameter %s=%q is not an integer", p.name, raw)
		}
		*p.dst = n
	}
	return env, text, nil
}

// buildRequest parses the envelope into a service request whose Tag is the
// format to serialise the response log in. The log itself comes through
// the wire-digest memo (see openLog).
func buildRequest(s *Service, env *AbstractRequest, text *logText) (Request, error) {
	format, err := uploadFormat(env.Format, text)
	if err != nil {
		return Request{}, err
	}
	set, err := constraints.ParseSet(env.Constraints)
	if err != nil {
		return Request{}, fmt.Errorf("parsing constraints: %w", err)
	}
	cfg, err := pipeline.StageSpec{
		Mode:            env.Mode,
		BeamWidth:       env.BeamWidth,
		Workers:         env.Workers,
		MaxChecks:       env.MaxChecks,
		Strategy:        env.Strategy,
		Policy:          env.Policy,
		Solver:          env.Solver,
		NamePrefix:      env.NamePrefix,
		NameByClassAttr: env.NameByClassAttr,
	}.SolverConfig()
	if err != nil {
		return Request{}, err
	}
	req := Request{Constraints: set, Config: cfg, Tag: format}
	if err := s.openLog(&req, text); err != nil {
		return Request{}, err
	}
	return req, nil
}

// openLog points req at its uploaded log, in the format req.Tag names,
// through the wire-digest memo. When a byte-identical upload has been
// parsed before, req carries only its canonical digest and a loader, so a
// result-cache hit, or a live or warm-opened session, never re-reads the
// XES or CSV at all. Any other upload is parsed here, and the memo learns
// its digest. The loader cannot fail: the memo only learns uploads that
// parsed, and parsing is deterministic.
func (s *Service) openLog(req *Request, text *logText) error {
	format := req.Tag
	// One parse-once loader shared by every per-set copy of a batch
	// request: whichever copy needs the events first pays the parse, the
	// rest reuse it.
	var (
		parseOnce sync.Once
		parsed    *eventlog.Index
		parseErr  error
	)
	req.loadIndex = func() (*eventlog.Index, error) {
		//lint:gecco-allow(oncesafe): a fresh Once per request is the point — every per-set copy of this one request shares the closure (and so this Once); single-flight across requests is the wire memo's job, not this loader's
		parseOnce.Do(func() {
			if parsed, parseErr = parseUpload(format, text.bytes()); parseErr == nil {
				s.uploadsParsed.Add(1)
			}
		})
		return parsed, parseErr
	}
	wk := wireID{format: format, sum: text.digest()}
	if d, ok := s.wire.get(wk); ok {
		req.digest = d
		return nil
	}
	x, err := req.loadIndex()
	if err != nil {
		return err
	}
	req.Index = x
	// Empty logs are rejected by validation, so memoising one would let a
	// later byte-identical upload dodge that check via the lazy path.
	if x.NumTraces() > 0 {
		s.wire.put(wk, req.logDigest())
	}
	return nil
}

// parseUpload parses an uploaded log of the given wire format straight
// into its columnar index; no *Log is built on the serving path.
func parseUpload(format string, text []byte) (*eventlog.Index, error) {
	var (
		x   *eventlog.Index
		err error
	)
	if format == "xes" {
		x, err = xes.ReadIndexBytes(text)
	} else {
		x, err = csvlog.ReadIndex(bytes.NewReader(text), csvlog.Options{})
	}
	if err != nil {
		return nil, fmt.Errorf("parsing %s log: %w", format, err)
	}
	return x, nil
}

func buildResponse(res *JobResult, format string, omitAbstracted bool) (*AbstractResponse, error) {
	resp := &AbstractResponse{
		Feasible:           res.Feasible,
		Distance:           res.Distance,
		GroupClasses:       res.GroupClasses,
		ActivityNames:      res.Grouping.Names,
		NumCandidates:      res.NumCandidates,
		CandidatesTimedOut: res.CandidatesTimedOut,
		ConstraintChecks:   res.ConstraintChecks,
	}
	resp.TimingsMs.Candidates = ms(res.Timings.Candidates)
	resp.TimingsMs.Solve = ms(res.Timings.Solve)
	resp.TimingsMs.Abstract = ms(res.Timings.Abstract)
	if res.Diagnostics != nil {
		resp.Diagnostics = res.Diagnostics.String()
	}
	if res.Abstracted != nil && !omitAbstracted {
		var err error
		if resp.Abstracted, err = writeLog(format, res.Abstracted); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// writeLog serialises an abstracted log in an upload's wire format.
func writeLog(format string, x *eventlog.Index) (string, error) {
	var b strings.Builder
	var err error
	if format == "csv" {
		err = csvlog.WriteIndex(&b, x)
	} else {
		err = xes.WriteIndex(&b, x)
	}
	if err != nil {
		return "", fmt.Errorf("serialising abstracted log: %w", err)
	}
	return b.String(), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
