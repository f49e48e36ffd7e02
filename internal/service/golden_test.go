package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goldenStep is one request of a golden case. A poll step instead GETs
// /jobs/{id} for the job the previous step answered with, until the job
// finishes. before, when set, runs first against the case's service.
type goldenStep struct {
	path        string // with its query
	contentType string
	body        string
	poll        bool
	before      func(t *testing.T, svc *Service)
}

// goldenCase is a sequence of requests to one fresh service whose
// responses are pinned byte for byte by testdata/golden/<name>.json.
type goldenCase struct {
	name  string
	steps []goldenStep
}

// goldenRecord is one response as the golden files store it.
type goldenRecord struct {
	Status int `json:"status"`
	Body   any `json:"body"`
}

func goldenCases(t *testing.T) []goldenCase {
	logXES := runningExampleXES(t)
	csv := "case,activity,role\n" +
		"1,a,clerk\n1,b,clerk\n1,c,boss\n" +
		"2,a,clerk\n2,b,clerk\n2,c,boss\n"
	emptyXES := `<log xes.version="1.0"></log>`
	badXES := `<log xes.version="1.0"><trace>`
	role := "distinct(role) <= 1"

	raw := func(path string, q url.Values, body string) goldenStep {
		return goldenStep{path: path + "?" + q.Encode(), contentType: "application/xml", body: body}
	}
	envelope := func(path string, v any) goldenStep {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return goldenStep{path: path, contentType: "application/json", body: string(b)}
	}
	abstract := func(extra ...string) url.Values {
		q := url.Values{"constraints": {role}}
		for i := 0; i+1 < len(extra); i += 2 {
			q.Set(extra[i], extra[i+1])
		}
		return q
	}
	one := func(name string, step goldenStep) goldenCase {
		return goldenCase{name: name, steps: []goldenStep{step}}
	}
	tail := func(details bool) goldenStep {
		return envelope("/pipeline", map[string]any{
			"format":      "xes",
			"log":         logXES,
			"constraints": role,
			"stages": []map[string]any{
				{"stage": "filter", "topVariants": 0.5},
				{"stage": "abstract", "mode": "exh"},
				{"stage": "discover"},
				{"stage": "conform", "details": details},
			},
		})
	}

	// The async case holds the only slot with a slow job, so the submit is
	// answered while its job is deterministically queued.
	var blocker string
	async := envelope("/abstract", map[string]any{"format": "csv", "log": csv, "constraints": role, "async": true})
	async.before = func(t *testing.T, svc *Service) { blocker = holdSlot(t, svc) }
	freeSlot := func(t *testing.T, svc *Service) {
		if _, err := svc.Cancel(blocker); err != nil {
			t.Fatal(err)
		}
	}

	cases := []goldenCase{
		{name: "abstract-raw-xes", steps: []goldenStep{
			raw("/abstract", abstract("mode", "dfg"), logXES),
			raw("/abstract", abstract("mode", "dfg"), logXES),
		}},
		one("abstract-envelope-csv", envelope("/abstract", map[string]any{"format": "csv", "log": csv, "constraints": role})),
		one("abstract-batch", envelope("/abstract", map[string]any{
			"format": "xes", "log": logXES, "constraintSets": []string{role, "|g| <= 3"},
		})),
		one("abstract-omit-abstracted", raw("/abstract", abstract("abstracted", "false"), logXES)),
		{name: "abstract-async", steps: []goldenStep{async, {poll: true, before: freeSlot}}},
		one("pipeline-default-raw", raw("/pipeline", url.Values{"constraints": {role}, "includeAbstracted": {"true"}}, logXES)),
		{name: "pipeline-envelope-tail", steps: []goldenStep{tail(false), tail(true)}},
	}

	// 400s, one bad field per request.
	for _, c := range []struct{ name, field, value string }{
		{"format", "format", "bogus"},
		{"mode", "mode", "bogus"},
		{"strategy", "strategy", "bogus"},
		{"policy", "policy", "bogus"},
		{"solver", "solver", "bogus"},
		{"constraint", "constraints", "not a constraint !!"},
		{"maxchecks", "maxChecks", "10k"},
	} {
		cases = append(cases, one("400-abstract-"+c.name, raw("/abstract", abstract(c.field, c.value), logXES)))
	}
	for _, c := range []struct{ name, spec string }{
		{"mode", `{"stage":"abstract","mode":"bogus"}`},
		{"strategy", `{"stage":"abstract","strategy":"bogus"}`},
		{"policy", `{"stage":"abstract","policy":"bogus"}`},
		{"solver", `{"stage":"abstract","solver":"bogus"}`},
		{"unknown-stage", `{"stage":"bogus"}`},
		{"unknown-field", `{"stage":"abstract","nope":1}`},
		{"conform-without-discover", `{"stage":"conform"}`},
	} {
		q := url.Values{"constraints": {role}, "stages": {"[" + c.spec + "]"}}
		cases = append(cases, one("400-pipeline-"+c.name, raw("/pipeline", q, logXES)))
	}
	cases = append(cases,
		one("400-pipeline-format", raw("/pipeline", url.Values{"constraints": {role}, "format": {"bogus"}}, logXES)),
		one("400-pipeline-constraint", raw("/pipeline", url.Values{"constraints": {"not a constraint !!"}}, logXES)),
		one("400-abstract-unparsable-log", raw("/abstract", abstract(), badXES)),
		one("400-abstract-empty-log", raw("/abstract", abstract(), emptyXES)),
		one("400-pipeline-unparsable-log", raw("/pipeline", url.Values{"constraints": {role}}, badXES)),
		one("400-pipeline-empty-log", raw("/pipeline", url.Values{"constraints": {role}}, emptyXES)),
		one("400-stream-mode", goldenStep{path: "/stream?" + abstract("mode", "bogus").Encode(), contentType: "application/x-ndjson"}),
		one("400-stream-no-constraints", goldenStep{path: "/stream", contentType: "application/x-ndjson"}),
		// Two bad fields: /abstract reports its constraints and config
		// before the log, /pipeline the log before its constraints.
		one("order-abstract-constraint-before-log", raw("/abstract", abstract("constraints", "not a constraint !!"), badXES)),
		one("order-abstract-mode-before-log", raw("/abstract", abstract("mode", "bogus"), badXES)),
		one("order-pipeline-log-before-constraint", raw("/pipeline", url.Values{"constraints": {"not a constraint !!"}}, badXES)),
		one("order-pipeline-constraint-before-empty-log", raw("/pipeline", url.Values{"constraints": {"not a constraint !!"}}, emptyXES)),
	)
	return cases
}

// holdSlot occupies a concurrency slot with a slow job, which runs until
// it is cancelled, at the latest when the test ends, and returns the job's
// ID.
func holdSlot(t *testing.T, svc *Service) string {
	t.Helper()
	snap, err := svc.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	// Before the server's own cleanup, which waits for every request.
	t.Cleanup(func() { svc.Cancel(snap.ID) })
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Jobs.Running == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return snap.ID
}

// runGolden sends a case's requests to a fresh service and returns the
// responses in the golden files' encoding.
func runGolden(t *testing.T, c goldenCase) []byte {
	// One slot, which the async case holds while it submits.
	srv, svc := newTestServer(t, Options{MaxConcurrent: 1})
	var records []goldenRecord
	for i, step := range c.steps {
		if step.before != nil {
			step.before(t, svc)
		}
		var rec goldenRecord
		if step.poll {
			prev, _ := records[i-1].Body.(map[string]any)
			rec = pollJob(t, srv.URL+"/jobs/"+fmt.Sprint(prev["jobId"]))
		} else {
			resp, err := http.Post(srv.URL+step.path, step.contentType, strings.NewReader(step.body))
			if err != nil {
				t.Fatal(err)
			}
			rec = readGolden(t, resp)
		}
		records = append(records, rec)
	}
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// pollJob polls a job until it has finished.
func pollJob(t *testing.T, u string) goldenRecord {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		rec := readGolden(t, resp)
		body, _ := rec.Body.(map[string]any)
		if st := body["state"]; (st != string(StateQueued) && st != string(StateRunning)) || time.Now().After(deadline) {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readGolden decodes a JSON response with its numbers kept as sent, and
// zeroes the wall-clock fields: timingsMs and every stage's ms.
func readGolden(t *testing.T, resp *http.Response) goldenRecord {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var body any
	if err := dec.Decode(&body); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	zeroTimings(body)
	return goldenRecord{Status: resp.StatusCode, Body: body}
}

func zeroTimings(v any) {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if timings, ok := x.(map[string]any); ok && k == "timingsMs" {
				for name := range timings {
					timings[name] = json.Number("0")
				}
				continue
			}
			if _, ok := v["stage"]; ok && k == "ms" {
				v[k] = json.Number("0")
				continue
			}
			zeroTimings(x)
		}
	case []any:
		for _, x := range v {
			zeroTimings(x)
		}
	}
}

// TestHTTPGolden pins the status and body of /abstract, /pipeline and
// /stream answers: successful runs of each request form, and the 400s of
// each bad field.
func TestHTTPGolden(t *testing.T) {
	for _, c := range goldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", c.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if got := runGolden(t, c); !bytes.Equal(got, want) {
				t.Fatalf("response differs from testdata/golden/%s.json:\ngot:\n%s", c.name, got)
			}
		})
	}
}
