package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
	"gecco/internal/stream"
)

// wireTrace renders an event-model trace as its NDJSON wire form.
func wireTrace(tr eventlog.Trace) StreamTrace {
	wt := StreamTrace{ID: tr.ID}
	for i := range tr.Events {
		ev := &tr.Events[i]
		we := StreamEvent{Class: ev.Class}
		for k, v := range ev.Attrs {
			if k == eventlog.AttrTimestamp && v.Kind == eventlog.KindTime {
				we.Time = v.Time.Format(time.RFC3339Nano)
				continue
			}
			if we.Attrs == nil {
				we.Attrs = make(map[string]any)
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
		wt.Events = append(wt.Events, we)
	}
	return wt
}

func ndjsonBody(t *testing.T, traces []eventlog.Trace) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, tr := range traces {
		if err := enc.Encode(wireTrace(tr)); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// postStream posts an NDJSON body and splits the NDJSON response into the
// ack line and the per-trace lines.
func postStream(t *testing.T, srv *httptest.Server, params url.Values, body string) (*http.Response, streamAck, []StreamLine) {
	t.Helper()
	u := srv.URL + "/stream"
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	resp, err := http.Post(u, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	var ack streamAck
	if err := json.Unmarshal([]byte(lines[0]), &ack); err != nil {
		t.Fatalf("decoding ack line %q: %v", lines[0], err)
	}
	out := make([]StreamLine, 0, len(lines)-1)
	for _, l := range lines[1:] {
		var sl StreamLine
		if err := json.Unmarshal([]byte(l), &sl); err != nil {
			t.Fatalf("decoding line %q: %v", l, err)
		}
		out = append(out, sl)
	}
	return resp, ack, out
}

func streamParamsWith(extra map[string]string) url.Values {
	p := url.Values{"constraints": {"distinct(role) <= 1"}}
	for k, v := range extra {
		p.Set(k, v)
	}
	return p
}

func TestHTTPStreamEndToEnd(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	traces := procgen.RunningExample(60, 3).Traces
	resp, ack, lines := postStream(t, srv,
		streamParamsWith(map[string]string{"window": "30", "refresh": "15"}),
		ndjsonBody(t, traces))

	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if !ack.Created || ack.Window != 30 || ack.RefreshEvery != 15 || ack.DriftThreshold != 0.25 {
		t.Fatalf("ack = %+v", ack)
	}
	if len(lines) != len(traces) {
		t.Fatalf("%d response lines for %d traces", len(lines), len(traces))
	}
	if !lines[0].Regrouped {
		t.Fatal("first arrival must trigger the initial regrouping")
	}
	shorter := 0
	for i, l := range lines {
		if l.Error != "" {
			t.Fatalf("line %d: unexpected error %q", i, l.Error)
		}
		if len(l.Events) > len(traces[i].Events) {
			t.Fatalf("line %d grew: %d > %d events", i, len(l.Events), len(traces[i].Events))
		}
		if len(l.Events) < len(traces[i].Events) {
			shorter++
		}
	}
	if shorter == 0 {
		t.Fatal("no arrival was compressed")
	}
	st := svc.Stats().Streams
	if st.Traces != int64(len(traces)) || st.Created != 1 || st.Closed != 1 || st.Live != 0 {
		t.Fatalf("anonymous stream stats = %+v", st)
	}
	if st.Regroupings == 0 {
		t.Fatal("stats report no regroupings")
	}
}

func TestHTTPStreamNamedLifecycle(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	traces := procgen.RunningExample(40, 5).Traces
	params := streamParamsWith(map[string]string{"stream": "orders", "window": "25", "refresh": "20"})

	_, ack, lines := postStream(t, srv, params, ndjsonBody(t, traces[:25]))
	if !ack.Created || ack.Stream != "orders" {
		t.Fatalf("first ack = %+v", ack)
	}
	// Append: state persists — the same parameters are pinned, created is
	// false, and counters continue from the first request.
	_, ack2, lines2 := postStream(t, srv, url.Values{"stream": {"orders"}}, ndjsonBody(t, traces[25:]))
	if ack2.Created {
		t.Fatal("append reported created")
	}
	if ack2.Window != 25 {
		t.Fatalf("append ack lost pinned parameters: %+v", ack2)
	}
	if len(lines)+len(lines2) != len(traces) {
		t.Fatalf("%d+%d lines for %d traces", len(lines), len(lines2), len(traces))
	}

	// Snapshot.
	resp, err := http.Get(srv.URL + "/stream/orders")
	if err != nil {
		t.Fatal(err)
	}
	var snap StreamSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Traces != int64(len(traces)) || !snap.GroupingOK || len(snap.GroupClasses) == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.WindowLen != 25 {
		t.Fatalf("window length %d, want 25", snap.WindowLen)
	}

	// Close drops the state; the name becomes unknown.
	cresp, err := http.Post(srv.URL+"/stream/orders/close", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("close status %d", cresp.StatusCode)
	}
	gresp, err := http.Get(srv.URL + "/stream/orders")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("closed stream still answers: %d", gresp.StatusCode)
	}
	st := svc.Stats().Streams
	if st.Live != 0 || st.Closed != 1 || st.Traces != int64(len(traces)) {
		t.Fatalf("stats after close = %+v", st)
	}
}

func TestHTTPStreamMalformedNDJSON(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	good := ndjsonBody(t, procgen.RunningExample(2, 7).Traces)
	body := good + "this is not json\n" + good // trailing lines must not run
	_, _, lines := postStream(t, srv, streamParamsWith(nil), body)
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 2 results + 1 terminal error", len(lines))
	}
	if lines[0].Error != "" || lines[1].Error != "" {
		t.Fatalf("valid lines errored: %+v", lines[:2])
	}
	if lines[2].Error == "" || !strings.Contains(lines[2].Error, "line 3") {
		t.Fatalf("terminal line = %+v", lines[2])
	}

	// Structurally invalid traces are rejected the same way.
	for _, bad := range []string{
		`{"id":"x","events":[]}`,
		`{"id":"x","events":[{"class":""}]}`,
		`{"id":"x","events":[{"class":"a","time":"yesterday"}]}`,
		`{"id":"x","events":[{"class":"a","attrs":{"nested":{"no":1}}}]}`,
	} {
		_, _, lines := postStream(t, srv, streamParamsWith(nil), bad+"\n")
		if len(lines) != 1 || lines[0].Error == "" {
			t.Fatalf("body %q: lines = %+v", bad, lines)
		}
	}
}

func TestHTTPStreamValidation(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	// Creating without constraints is a 400.
	resp, err := http.Post(srv.URL+"/stream", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d without constraints", resp.StatusCode)
	}
	// Malformed, negative, or absurdly large numbers are a 400 — never
	// silently-zero parameters, and never an eager multi-gigabyte ring
	// allocation.
	for _, window := range []string{"many", "-5", "2000000000"} {
		resp, err = http.Post(srv.URL+"/stream?"+streamParamsWith(map[string]string{"window": window}).Encode(),
			"application/x-ndjson", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d for window=%s", resp.StatusCode, window)
		}
	}

	// Disabled streaming is a 404 on every stream route.
	srvOff, _ := newTestServer(t, Options{MaxStreams: -1})
	for _, req := range []func() (*http.Response, error){
		func() (*http.Response, error) {
			return http.Post(srvOff.URL+"/stream?"+streamParamsWith(nil).Encode(), "", strings.NewReader(""))
		},
		func() (*http.Response, error) { return http.Get(srvOff.URL + "/stream/x") },
		func() (*http.Response, error) { return http.Post(srvOff.URL+"/stream/x/close", "", nil) },
	} {
		resp, err := req()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("disabled streaming answered %d", resp.StatusCode)
		}
	}
}

func TestHTTPStreamLRUEviction(t *testing.T) {
	srv, svc := newTestServer(t, Options{MaxStreams: 2})
	body := ndjsonBody(t, procgen.RunningExample(3, 9).Traces)
	for _, name := range []string{"a", "b", "c"} {
		postStream(t, srv, streamParamsWith(map[string]string{"stream": name}), body)
	}
	// "a" was least recently used and fell off.
	resp, err := http.Get(srv.URL + "/stream/a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted stream still answers: %d", resp.StatusCode)
	}
	st := svc.Stats().Streams
	if st.Live != 2 || st.Evicted != 1 || st.Created != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Evicted streams' arrivals stay in the totals.
	if st.Traces != 9 {
		t.Fatalf("stats traces = %d, want 9", st.Traces)
	}
}

// TestHTTPStreamDeterministicBytes pins the acceptance criterion: two
// identical NDJSON sessions produce byte-identical response bodies. The
// second run's regroupings are also served from the result cache — same
// windows, same constraints — which must not change a single byte.
func TestHTTPStreamDeterministicBytes(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	traces := append(procgen.RunningExample(40, 11).Traces, procgen.LoanLog(30, 11).Traces...)
	body := ndjsonBody(t, traces)
	params := streamParamsWith(map[string]string{"window": "20", "refresh": "10"})

	read := func() string {
		resp, err := http.Post(srv.URL+"/stream?"+params.Encode(), "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	first := read()
	second := read()
	if first != second {
		t.Fatalf("identical streams produced different bytes:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if strings.Contains(first, `"error"`) {
		t.Fatalf("stream errored: %s", first)
	}
	// The replay hit the result cache for at least one regrouping window.
	if svc.Stats().Cache.Hits == 0 {
		t.Fatal("replayed stream never hit the result cache")
	}
}

func TestHTTPStreamCancellationMidStream(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST",
		srv.URL+"/stream?"+streamParamsWith(nil).Encode(), pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	line := ndjsonBody(t, procgen.RunningExample(1, 13).Traces)
	go func() { io.WriteString(pw, line) }()

	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ { // ack + first result
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading line %d: %v", i, err)
		}
	}
	cancel() // client goes away mid-stream
	pw.CloseWithError(fmt.Errorf("client cancelled"))
	if _, err := io.ReadAll(br); err == nil {
		t.Fatal("response did not terminate after cancellation")
	}

	// The server survives and serves the next request.
	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d after cancelled stream", h.StatusCode)
	}
}

// FuzzStreamTrace decodes one NDJSON line as handleStream does, with
// json.Unmarshal into a StreamTrace and then toTrace. An accepted trace
// must carry the line's events in order under their wire classes, and
// pushing it three times into an abstractor that regroups on every
// arrival must neither panic nor fail. The regroups run on one worker
// under a check budget, a count cut, so a line with many classes costs a
// bounded time per input.
func FuzzStreamTrace(f *testing.F) {
	set, err := constraints.ParseSet("distinct(role) <= 1")
	if err != nil {
		f.Fatal(err)
	}
	cfg := stream.Config{WindowSize: 3, RefreshEvery: 1, Pipeline: core.Config{Workers: 1}}
	cfg.Pipeline.Budget.MaxChecks = 1 << 14
	f.Fuzz(func(t *testing.T, line []byte) {
		var wt StreamTrace
		if json.Unmarshal(line, &wt) != nil {
			return
		}
		tr, err := wt.toTrace(1)
		if err != nil {
			return
		}
		if len(tr.Events) != len(wt.Events) {
			t.Fatalf("accepted %d events of the line's %d", len(tr.Events), len(wt.Events))
		}
		for i := range tr.Events {
			if tr.Events[i].Class != wt.Events[i].Class {
				t.Fatalf("event %d has class %q, the line %q", i+1, tr.Events[i].Class, wt.Events[i].Class)
			}
		}
		a := stream.New(set, cfg)
		for i := 0; i < 3; i++ {
			if _, err := a.Push(tr); err != nil {
				t.Fatalf("push %d: %v", i+1, err)
			}
		}
	})
}
