package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"gecco/internal/pipeline"
	"gecco/internal/procgen"
	"gecco/internal/xes"
)

func postPipeline(t *testing.T, srv *httptest.Server, contentType, body string, params url.Values) (*http.Response, PipelineResponse) {
	t.Helper()
	u := srv.URL + "/pipeline"
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	resp, err := http.Post(u, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out PipelineResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// goldenJSON re-marshals a pipeline response with the wall-clock ms fields
// zeroed, leaving only deterministic content.
func goldenJSON(t *testing.T, out PipelineResponse) []byte {
	t.Helper()
	for i := range out.Stages {
		out.Stages[i].Ms = 0
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Golden end to end: the default suggest→abstract→discover→conform pipeline
// on the running example under the paper's role-homogeneity constraint
// produces the same JSON (modulo timings) on two independent service
// instances, and each section is populated.
func TestHTTPPipelineGoldenEndToEnd(t *testing.T) {
	logXES := runningExampleXES(t)
	params := url.Values{
		"constraints":       {"distinct(role) <= 1"},
		"includeAbstracted": {"true"},
	}

	run := func() PipelineResponse {
		srv, _ := newTestServer(t, Options{})
		resp, out := postPipeline(t, srv, "application/xml", logXES, params)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %+v", resp.StatusCode, out)
		}
		return out
	}
	out := run()

	if len(out.Stages) != 4 {
		t.Fatalf("ran %d stages, want the 4 defaults: %+v", len(out.Stages), out.Stages)
	}
	wantOrder := []string{"suggest", "abstract", "discover", "conform"}
	for i, st := range out.Stages {
		if st.Stage != wantOrder[i] {
			t.Fatalf("stage %d = %s, want %s", i, st.Stage, wantOrder[i])
		}
		if st.Key == "" {
			t.Fatalf("stage %s has no chain key", st.Stage)
		}
		if st.Cached {
			t.Fatalf("stage %s cached on a fresh service", st.Stage)
		}
	}
	if len(out.Constraints) != 1 {
		t.Fatalf("constraints not echoed: %v", out.Constraints)
	}
	if out.Abstraction == nil || !out.Abstraction.Feasible {
		t.Fatalf("abstraction missing or infeasible: %+v", out.Abstraction)
	}
	if got := len(out.Abstraction.GroupClasses); got != 4 {
		t.Fatalf("got %d groups, want 4 (Figure 7): %v", got, out.Abstraction.GroupClasses)
	}
	if out.Abstracted == "" {
		t.Fatal("includeAbstracted=true returned no abstracted log")
	}
	if out.Model == nil || len(out.Model.Activities) != 4 || out.Model.Edges == 0 {
		t.Fatalf("model missing or empty: %+v", out.Model)
	}
	if out.Conformance == nil {
		t.Fatal("conform stage produced no result")
	}
	if f := out.Conformance.Fitness; f <= 0 || f > 1 {
		t.Fatalf("fitness %f out of (0,1]", f)
	}
	if p := out.Conformance.Precision; p <= 0 || p > 1 {
		t.Fatalf("precision %f out of (0,1]", p)
	}

	// A second, independent instance must produce byte-identical JSON once
	// the per-stage wall-clock fields are zeroed.
	if a, b := goldenJSON(t, out), goldenJSON(t, run()); !bytes.Equal(a, b) {
		t.Fatalf("pipeline output not deterministic across instances:\n%s\n%s", a, b)
	}
}

// The chain keys /pipeline returns are the ones a library caller derives
// from the same log and constraint set, declared in any order:
// pipeline.ChainKey over pipeline.BaseKey(LogDigest(log), set.String()).
// So the gecco CLI's -pipeline keys name the server's cached stages.
func TestHTTPPipelineKeysMatchLibrary(t *testing.T) {
	const text = "|g| <= 8\ndistinct(role) <= 1"
	srv, _ := newTestServer(t, Options{})
	resp, out := postPipeline(t, srv, "application/xml", runningExampleXES(t), url.Values{"constraints": {text}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	stages, err := pipeline.BuildStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Stages) != len(stages) {
		t.Fatalf("ran %d stages, want %d", len(out.Stages), len(stages))
	}
	key := pipeline.BaseKey(LogDigest(procgen.RunningExampleTable1()), mustSet(t, text).String())
	for i, st := range stages {
		key = pipeline.ChainKey(key, st)
		if out.Stages[i].Key != key {
			t.Errorf("stage %d (%s): key %s, want %s", i, st.Name(), out.Stages[i].Key, key)
		}
	}
}

// Re-submitting a pipeline with only the tail (conform) stage changed must
// adopt every upstream state from the per-stage cache — counter-asserted
// through /stats — so the expensive abstract stage never re-runs.
func TestHTTPPipelineTailChangeHitsCache(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	logXES := runningExampleXES(t)

	stages := func(details bool) string {
		specs := []map[string]any{
			{"stage": "suggest"},
			{"stage": "abstract"},
			{"stage": "discover"},
		}
		conform := map[string]any{"stage": "conform"}
		if details {
			conform["details"] = true
		}
		b, err := json.Marshal(append(specs, conform))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	resp, out := postPipeline(t, srv, "application/xml", logXES,
		url.Values{"stages": {stages(false)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	for _, st := range out.Stages {
		if st.Cached {
			t.Fatalf("stage %s cached on the first run", st.Stage)
		}
	}

	resp, out2 := postPipeline(t, srv, "application/xml", logXES,
		url.Values{"stages": {stages(true)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out2)
	}
	for i, st := range out2.Stages[:3] {
		if !st.Cached {
			t.Fatalf("upstream stage %s re-executed after a tail-only change", st.Stage)
		}
		if st.Key != out.Stages[i].Key {
			t.Fatalf("stage %s chain key changed by a tail edit", st.Stage)
		}
	}
	if out2.Stages[3].Cached {
		t.Fatal("edited conform stage served from cache")
	}
	if out2.Stages[3].Key == out.Stages[3].Key {
		t.Fatal("conform chain key ignored its config change")
	}
	if len(out2.Conformance.Misfits) == 0 && out2.Conformance.Fitness < 1 {
		t.Fatal("details=true with imperfect fitness reported no misfits")
	}

	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	if st.Pipeline.Runs != 2 {
		t.Fatalf("pipeline runs = %d, want 2", st.Pipeline.Runs)
	}
	for _, name := range []string{"suggest", "abstract", "discover"} {
		ctr := st.Pipeline.Stages[name]
		if ctr.Hits != 1 || ctr.Misses != 1 {
			t.Fatalf("%s counters hits=%d misses=%d, want 1/1 (second run adopted from cache)",
				name, ctr.Hits, ctr.Misses)
		}
	}
	if ctr := st.Pipeline.Stages["conform"]; ctr.Hits != 0 || ctr.Misses != 2 {
		t.Fatalf("conform counters hits=%d misses=%d, want 0/2 (both configs executed)",
			ctr.Hits, ctr.Misses)
	}
	if st.Pipeline.Entries == 0 || st.Pipeline.Capacity == 0 {
		t.Fatalf("state LRU occupancy not reported: %+v", st.Pipeline)
	}
}

// The JSON envelope path: a CSV log with explicit constraints skips the
// suggest stage's derivation and solves under the supplied set.
func TestHTTPPipelineJSONEnvelope(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	csv := "case,activity,role\n" +
		"1,a,clerk\n1,b,clerk\n1,c,boss\n" +
		"2,a,clerk\n2,c,boss\n"
	env := PipelineHTTPRequest{
		Format:      "csv",
		Log:         csv,
		Constraints: "distinct(role) <= 1",
	}
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postPipeline(t, srv, "application/json", string(body), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	if len(out.Constraints) != 1 || !strings.Contains(out.Constraints[0], "distinct(role)") {
		t.Fatalf("user constraints not echoed: %v", out.Constraints)
	}
	if len(out.Suggestions) != 0 {
		t.Fatal("suggest stage derived constraints despite a user-supplied set")
	}
	if out.Abstraction == nil || !out.Abstraction.Feasible {
		t.Fatalf("role homogeneity infeasible: %+v", out.Abstraction)
	}
	if out.Model == nil || out.Conformance == nil {
		t.Fatal("downstream stages missing from envelope run")
	}
}

// Invalid pipelines are rejected as 400s before burning a concurrency slot.
func TestHTTPPipelineInvalidRequests(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	logXES := runningExampleXES(t)

	for name, tc := range map[string]struct {
		body   string
		params url.Values
	}{
		"bad stage list":      {logXES, url.Values{"stages": {`[{"stage":"bogus"}]`}}},
		"unknown field":       {logXES, url.Values{"stages": {`[{"stage":"abstract","nope":1}]`}}},
		"conform needs model": {logXES, url.Values{"stages": {`[{"stage":"conform"}]`}}},
		"unparsable log":      {"not xml <", nil},
		"empty body":          {"", nil},
	} {
		resp, err := http.Post(srv.URL+"/pipeline?"+tc.params.Encode(), "application/xml",
			strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// A stage list that cannot run is a 400 before the request waits for a
// slot, so it is not held behind running jobs.
func TestHTTPPipelineChecksBeforeWaiting(t *testing.T) {
	srv, svc := newTestServer(t, Options{MaxConcurrent: 1})
	holdSlot(t, svc)
	client := &http.Client{Timeout: time.Second}
	u := srv.URL + "/pipeline?" + url.Values{"stages": {`[{"stage":"conform"}]`}}.Encode()
	resp, err := client.Post(u, "application/xml", strings.NewReader(runningExampleXES(t)))
	if err != nil {
		t.Fatalf("no answer within 1 s while the slot is held: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// /pipeline waits for a slot in the queue /abstract's jobs wait in: with the
// one slot held and room for one waiter, a waiting /pipeline fills the
// queue, and the next /pipeline is shed exactly as /abstract is.
func TestHTTPPipelineSharesQueue(t *testing.T) {
	srv, svc := newTestServer(t, Options{MaxConcurrent: 1})
	svc.maxQueued = 1
	blocker := holdSlot(t, svc)
	logXES := runningExampleXES(t)
	u := "?" + url.Values{"constraints": {"distinct(role) <= 1"}}.Encode()
	waited := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/pipeline"+u, "application/xml", strings.NewReader(logXES))
		if err != nil {
			t.Error(err)
			waited <- 0
			return
		}
		resp.Body.Close()
		waited <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !svc.Busy() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !svc.Busy() {
		t.Fatal("a /pipeline waiting for the slot does not count in the queue")
	}
	var bodies []string
	for _, path := range []string{"/pipeline", "/abstract"} {
		resp, err := http.Post(srv.URL+path+u, "application/xml", strings.NewReader(logXES))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("%s with a full queue: status %d, Retry-After %q", path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		bodies = append(bodies, string(body))
	}
	if bodies[0] != bodies[1] || !strings.Contains(bodies[0], ErrBusy.Error()) {
		t.Fatalf("/pipeline shed with %s, /abstract with %s", bodies[0], bodies[1])
	}
	if _, err := svc.Cancel(blocker); err != nil {
		t.Fatal(err)
	}
	if status := <-waited; status != http.StatusOK {
		t.Fatalf("the waiting /pipeline ended with %d, want 200", status)
	}
}

// /pipeline reads its log through the wire memo, as /abstract does: the
// upload teaches the memo its digest, and a byte-identical re-upload, which
// then parses nothing, gets the same response.
func TestHTTPPipelineWireMemo(t *testing.T) {
	srv, svc := newTestServer(t, Options{CacheCapacity: -1})
	logXES := runningExampleXES(t)
	params := url.Values{"constraints": {"distinct(role) <= 1"}}
	var outs [][]byte
	for i := 0; i < 2; i++ {
		resp, out := postPipeline(t, srv, "application/xml", logXES, params)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: status %d", i+1, resp.StatusCode)
		}
		if _, ok := svc.wire.get(wireKey("xes", logXES)); !ok {
			t.Fatalf("upload %d left the wire memo without the log", i+1)
		}
		outs = append(outs, goldenJSON(t, out))
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("re-upload answered differently:\n%s\n%s", outs[0], outs[1])
	}
}

// loanSet is the constraint set loanPipeline's runs solve under.
const loanSet = "distinct(class.org) <= 1\n|g| <= 8"

// loanPipeline returns a 50-trace loan log as XES and a function building
// the JSON envelope that uploads it through filter → abstract → discover →
// conform, with the filter's topVariants and the discover stage's
// edgeFilter as given.
func loanPipeline(t *testing.T, seed int64) (logXES string, body func(topVariants, edgeFilter float64) string) {
	t.Helper()
	var b strings.Builder
	if err := xes.Write(&b, procgen.LoanLog(50, seed)); err != nil {
		t.Fatal(err)
	}
	logXES = b.String()
	return logXES, func(topVariants, edgeFilter float64) string {
		env, err := json.Marshal(map[string]any{
			"format":      "xes",
			"log":         logXES,
			"constraints": loanSet,
			"stages": []map[string]any{
				{"stage": "filter", "topVariants": topVariants},
				{"stage": "abstract", "mode": "dfg"},
				{"stage": "discover", "edgeFilter": edgeFilter},
				{"stage": "conform"},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(env)
	}
}

// mustPipeline posts a /pipeline JSON envelope and fails unless it is
// answered with 200.
func mustPipeline(t *testing.T, srv *httptest.Server, body string) {
	t.Helper()
	if resp, out := postPipeline(t, srv, "application/json", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
}

// A byte-identical re-upload whose filter and abstract stages hit the stage
// cache parses nothing: no stage reads the upload, so the run never loads
// it, although no live session holds the raw log. An upload that fails to
// parse is not counted, and no state the stage cache holds pins an upload.
func TestHTTPPipelineReuploadParsesNothing(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	_, body := loanPipeline(t, 17)
	malformed := `{"format": "xes", "log": "<log><trace></log>", "stages": [{"stage": "discover"}]}`
	if resp, out := postPipeline(t, srv, "application/json", malformed, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed upload: status %d, want 400: %+v", resp.StatusCode, out)
	}
	if n := svc.Stats().Uploads.Parsed; n != 0 {
		t.Fatalf("uploads.parsed = %d after an upload that failed to parse, want 0", n)
	}
	mustPipeline(t, srv, body(0.9, 0.8))
	mustPipeline(t, srv, body(0.9, 0.75))
	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	if st.Uploads.Parsed != 1 {
		t.Fatalf("uploads.parsed = %d after a re-upload whose log no stage read, want 1", st.Uploads.Parsed)
	}
	want := map[string]StageCounters{
		"filter":   {Hits: 1, Misses: 1},
		"abstract": {Hits: 1, Misses: 1},
		"discover": {Misses: 2},
		"conform":  {Misses: 2},
	}
	if !reflect.DeepEqual(st.Pipeline.Stages, want) {
		t.Fatalf("stage counters %+v, want %+v", st.Pipeline.Stages, want)
	}
	svc.pipe.mu.Lock()
	defer svc.pipe.mu.Unlock()
	svc.pipe.lru.each(func(st *pipeline.State) {
		if st.Index == nil || st.Load != nil {
			t.Errorf("a cached %+v holds a loader or no index", st)
		}
	})
}

// A re-upload whose first stage misses takes its base log from a live
// session that holds it, and parses nothing.
func TestHTTPPipelineBaseFromLiveSession(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	logXES, body := loanPipeline(t, 17)
	params := url.Values{"constraints": {"distinct(class.org) <= 1"}}
	if resp, out := postAbstract(t, srv, logXES, params); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	before := svc.Stats()
	mustPipeline(t, srv, body(0.7, 0.8))
	after := svc.Stats()
	if after.Uploads.Parsed != before.Uploads.Parsed {
		t.Fatalf("uploads.parsed %d → %d, want no parse", before.Uploads.Parsed, after.Uploads.Parsed)
	}
	if after.Sessions.Hits != before.Sessions.Hits+1 {
		t.Fatalf("session hits %d → %d, want the run to use the log's session", before.Sessions.Hits, after.Sessions.Hits)
	}
}

// TestStageCacheLRUEviction: a full stage cache drops its least recently
// used state, a Get refreshes recency, and Stats counts the eviction and
// each stage's hits and misses.
func TestStageCacheLRUEviction(t *testing.T) {
	c := newStageCache(2)
	a, b, s := &pipeline.State{}, &pipeline.State{}, &pipeline.State{}
	c.Put("filter", "a", a)
	c.Put("abstract", "b", b)
	if got, ok := c.Get("filter", "a"); !ok || got != a {
		t.Fatal("a missing before the eviction")
	}
	c.Put("discover", "c", s)
	if _, ok := c.Get("abstract", "b"); ok {
		t.Fatal("b, the least recently used state, survived")
	}
	if got, ok := c.Get("filter", "a"); !ok || got != a {
		t.Fatal("a was evicted although it was used after b")
	}
	if got, ok := c.Get("discover", "c"); !ok || got != s {
		t.Fatal("c, the newest state, is missing")
	}
	want := PipelineStats{Entries: 2, Capacity: 2, Evictions: 1, Stages: map[string]StageCounters{
		"filter":   {Hits: 2},
		"abstract": {Misses: 1},
		"discover": {Hits: 1},
	}}
	if got := c.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}
