// HTTP surface of the staged pipeline engine: POST /pipeline accepts a raw
// XES/CSV log (or the JSON envelope) plus a stage list and runs it through
// the service. The endpoint shares /abstract's request path — load
// shedding, dual request forms, the wire memo, the queue and the
// error-status mapping — so clients can switch between one-shot solves and
// full pipelines without relearning the API.
package service

import (
	"net/http"

	"gecco/internal/conformance"
	"gecco/internal/pipeline"
)

// PipelineHTTPRequest is the JSON envelope accepted by POST /pipeline. Raw
// XES or CSV bodies are also accepted, with constraints and the stage list
// read from the constraints and stages query parameters.
type PipelineHTTPRequest struct {
	// Format of Log: "xes" or "csv"; default sniffs XES for bodies
	// starting with '<'.
	Format string `json:"format,omitempty"`
	// Log is the event log serialised in Format.
	Log string `json:"log"`
	// Constraints holds newline-separated constraint declarations; empty
	// lets a suggest stage derive them from the log.
	Constraints string `json:"constraints,omitempty"`
	// Stages is the stage list; empty runs the default
	// suggest → abstract → discover → conform pipeline.
	Stages []pipeline.StageSpec `json:"stages,omitempty"`
	// IncludeAbstracted additionally returns the abstracted log serialised
	// in the request format (it can be large; off by default).
	IncludeAbstracted bool `json:"includeAbstracted,omitempty"`
}

// PipelineStageStatus reports one stage of a finished run.
type PipelineStageStatus struct {
	Stage string `json:"stage"`
	// Key is the stage's chain key: it commits to the log, the user
	// constraints, and every stage configuration up to this stage.
	Key string `json:"key"`
	// Cached reports the stage was adopted from the per-stage cache
	// instead of executed.
	Cached bool    `json:"cached"`
	Ms     float64 `json:"ms"`
}

// PipelineSuggestion is one ranked constraint proposal of a suggest stage.
type PipelineSuggestion struct {
	Constraint    string  `json:"constraint"`
	SingletonPass float64 `json:"singletonPass"`
	Rationale     string  `json:"rationale"`
}

// PipelineAbstraction summarises the abstract stage's outcome.
type PipelineAbstraction struct {
	Feasible      bool       `json:"feasible"`
	Distance      float64    `json:"distance,omitempty"`
	GroupClasses  [][]string `json:"groupClasses,omitempty"`
	ActivityNames []string   `json:"activityNames,omitempty"`
	Diagnostics   string     `json:"diagnostics,omitempty"`
}

// PipelineModel summarises the discovered process model.
type PipelineModel struct {
	Activities []string `json:"activities"`
	Edges      int      `json:"edges"`
	CFC        float64  `json:"cfc"`
	Size       int      `json:"size"`
}

// PipelineConformance reports the conform stage's evaluation.
type PipelineConformance struct {
	Fitness   float64              `json:"fitness"`
	Precision float64              `json:"precision"`
	Misfits   []conformance.Misfit `json:"misfits,omitempty"`
}

// PipelineResponse is the JSON result of POST /pipeline. Sections are
// present exactly when a stage produced them, so a filter-only pipeline
// returns just the stage statuses.
type PipelineResponse struct {
	Stages []PipelineStageStatus `json:"stages"`
	// Constraints is the active constraint set the run solved under —
	// echoed user constraints, or the suggest stage's adoptions.
	Constraints []string             `json:"constraints,omitempty"`
	Suggestions []PipelineSuggestion `json:"suggestions,omitempty"`
	Abstraction *PipelineAbstraction `json:"abstraction,omitempty"`
	Model       *PipelineModel       `json:"model,omitempty"`
	Conformance *PipelineConformance `json:"conformance,omitempty"`
	// Abstracted is the abstracted log (request format), only when asked
	// for with includeAbstracted.
	Abstracted string `json:"abstracted,omitempty"`
}

func handlePipeline(s *Service, w http.ResponseWriter, r *http.Request) {
	// Same load-shed as /abstract: reject before parsing up to 64 MiB when
	// the queue is full anyway.
	if s.Busy() {
		writeRunError(w, r, ErrBusy)
		return
	}
	env, text, err := decodePipelineRequest(s, w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	format, err := uploadFormat(env.Format, text)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	stages, base, baseKey, err := s.preparePipeline(format, env, text)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out, err := s.runPipeline(r.Context(), stages, base, baseKey)
	if err != nil {
		writeRunError(w, r, err)
		return
	}
	resp, err := buildPipelineResponse(out, format, env.IncludeAbstracted)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodePipelineRequest accepts either the JSON envelope or a raw XES/CSV
// body with the stage list in the stages query parameter (curl-friendly).
// The log comes back as a logText; the envelope's Log field is left empty.
func decodePipelineRequest(s *Service, w http.ResponseWriter, r *http.Request) (*PipelineHTTPRequest, *logText, error) {
	env := &PipelineHTTPRequest{}
	text, err := s.readUpload(w, r, env, &env.Log)
	if err != nil || isEnvelope(r) {
		return env, text, err
	}
	q := r.URL.Query()
	specs, err := pipeline.ParseSpecs(q.Get("stages"))
	if err != nil {
		return nil, nil, err
	}
	return &PipelineHTTPRequest{
		Format:            q.Get("format"),
		Constraints:       q.Get("constraints"),
		Stages:            specs,
		IncludeAbstracted: q.Get("includeAbstracted") == "true",
	}, text, nil
}

func buildPipelineResponse(out *pipeline.Result, format string, includeAbstracted bool) (*PipelineResponse, error) {
	resp := &PipelineResponse{Stages: make([]PipelineStageStatus, len(out.Stages))}
	for i, st := range out.Stages {
		resp.Stages[i] = PipelineStageStatus{
			Stage:  st.Stage,
			Key:    st.Key,
			Cached: st.Cached,
			Ms:     ms(st.Duration),
		}
	}
	state := out.State
	if state.Constraints != nil {
		for _, c := range state.Constraints.All() {
			resp.Constraints = append(resp.Constraints, c.String())
		}
	}
	for _, sg := range state.Suggestions {
		resp.Suggestions = append(resp.Suggestions, PipelineSuggestion{
			Constraint:    sg.Constraint.String(),
			SingletonPass: sg.SingletonPass,
			Rationale:     sg.Rationale,
		})
	}
	if res := state.Abstraction; res != nil {
		abs := &PipelineAbstraction{
			Feasible:      res.Feasible,
			Distance:      res.Distance,
			GroupClasses:  res.GroupClasses,
			ActivityNames: res.Grouping.Names,
		}
		if res.Diagnostics != nil {
			abs.Diagnostics = res.Diagnostics.String()
		}
		resp.Abstraction = abs
		if includeAbstracted && res.Feasible && state.Abstracted != nil {
			var err error
			if resp.Abstracted, err = writeLog(format, state.Abstracted); err != nil {
				return nil, err
			}
		}
	}
	if m := state.Model; m != nil {
		resp.Model = &PipelineModel{
			Activities: m.Labels,
			Edges:      m.Graph.NumEdges(),
			CFC:        m.CFC(),
			Size:       m.Size(),
		}
	}
	if c := state.Conformance; c != nil {
		resp.Conformance = &PipelineConformance{
			Fitness:   c.Fitness,
			Precision: c.Precision,
			Misfits:   c.Misfits,
		}
	}
	return resp, nil
}
