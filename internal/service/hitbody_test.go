package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"gecco/internal/csvlog"
)

// httpCall is one POST to a test server.
type httpCall struct {
	path, contentType, body string
}

// send posts the call and returns the response's status, Content-Type and
// body bytes.
func (c httpCall) send(t *testing.T, srv *httptest.Server) (status int, contentType string, body []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+c.path, c.contentType, strings.NewReader(c.body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// mustOK sends the call and returns its body, failing unless the answer
// is a 200 JSON response.
func (c httpCall) mustOK(t *testing.T, srv *httptest.Server) []byte {
	t.Helper()
	status, contentType, body := c.send(t, srv)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", c.path, status, body)
	}
	if contentType != "application/json" {
		t.Fatalf("POST %s: Content-Type %q, want application/json", c.path, contentType)
	}
	return body
}

func envelopeCall(t *testing.T, v map[string]any) httpCall {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return httpCall{path: "/abstract", contentType: "application/json", body: string(b)}
}

func rawCall(q url.Values, body string) httpCall {
	return httpCall{path: "/abstract?" + q.Encode(), contentType: "application/xml", body: body}
}

// roleCSV is a two-trace CSV log with a role attribute.
const roleCSV = "case,activity,role\n" +
	"1,a,clerk\n1,b,clerk\n1,c,boss\n" +
	"2,a,clerk\n2,b,clerk\n2,c,boss\n"

// reencode decodes an /abstract body into AbstractResponse, applies edit,
// and encodes it as encoding/json does by default: the bytes a response
// must be.
func reencode(t *testing.T, body []byte, edit func(*AbstractResponse)) []byte {
	t.Helper()
	var r AbstractResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decoding %.200q: %v", body, err)
	}
	if edit != nil {
		edit(&r)
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(&r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sameBytes fails when got is not want, showing where they part.
func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(i-40, 0)
	t.Fatalf("%s: %d bytes, want %d; first difference at byte %d:\n got %q\nwant %q",
		what, len(got), len(want), i, got[from:min(i+40, len(got))], want[from:min(i+40, len(want))])
}

// TestHTTPResponseBytes pins /abstract bodies byte for byte, which the
// golden files cannot: they are decoded before they are compared, so they
// do not see field order, HTML escaping or the trailing newline. Each
// request goes three times to a fresh server, a miss and then two hits.
// Every body must be exactly what encoding/json writes for its
// AbstractResponse, the two hits must be the same bytes, and a hit must be
// the miss without its job ID and with cached set.
func TestHTTPResponseBytes(t *testing.T) {
	logXES := runningExampleXES(t)
	role := "distinct(role) <= 1"
	cases := []struct {
		name string
		call httpCall
	}{
		{"raw-xes", rawCall(url.Values{"constraints": {role}}, logXES)},
		{"envelope-xes", envelopeCall(t, map[string]any{"format": "xes", "log": logXES, "constraints": role})},
		{"envelope-csv", envelopeCall(t, map[string]any{"format": "csv", "log": roleCSV, "constraints": role})},
		{"envelope-omit-abstracted", envelopeCall(t, map[string]any{"format": "xes", "log": logXES, "constraints": role, "omitAbstracted": true})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, _ := newTestServer(t, Options{})
			var bodies [3][]byte
			for i := range bodies {
				bodies[i] = c.call.mustOK(t, srv)
				sameBytes(t, fmt.Sprintf("response %d against its re-encoding", i+1), bodies[i], reencode(t, bodies[i], nil))
			}
			var miss AbstractResponse
			if err := json.Unmarshal(bodies[0], &miss); err != nil {
				t.Fatal(err)
			}
			if miss.Cached || miss.JobID == "" {
				t.Fatalf("first response: cached %t, job %q; want a miss with a job ID", miss.Cached, miss.JobID)
			}
			sameBytes(t, "second hit against the first", bodies[2], bodies[1])
			want := reencode(t, bodies[0], func(r *AbstractResponse) { r.JobID, r.Cached = "", true })
			sameBytes(t, "hit against the miss as a hit", bodies[1], want)
		})
	}
}

// TestHitRendersOnce: an /abstract hit body is rendered once per result,
// wire format and omitAbstracted value, on the first hit that asks for it,
// and later hits send the same bytes. Misses, batch items and async
// submissions render per response and do not count.
func TestHitRendersOnce(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	parsed, err := csvlog.Read(strings.NewReader(roleCSV), csvlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	logXES := xesText(t, parsed)
	role := "distinct(role) <= 1"
	xesCall := rawCall(url.Values{"constraints": {role}}, logXES)
	check := func(what string, want int64) {
		t.Helper()
		if got := svc.Stats().Cache.Rendered; got != want {
			t.Fatalf("%s: cache.rendered = %d, want %d", what, got, want)
		}
	}

	xesCall.mustOK(t, srv)
	check("after the miss", 0)
	// hits sends a call n times, requires the same hit body each time, and
	// returns it.
	hits := func(c httpCall, n int) []byte {
		t.Helper()
		first := c.mustOK(t, srv)
		if !bytes.Contains(first, []byte(`"cached":true`)) {
			t.Fatalf("not a hit: %.200s", first)
		}
		for i := 1; i < n; i++ {
			sameBytes(t, fmt.Sprintf("hit %d against the first", i+1), c.mustOK(t, srv), first)
		}
		return first
	}
	hits(xesCall, 5)
	check("after five XES hits", 1)

	// The same events as CSV have the same digest, so the same key: a hit
	// on the same result, in the other format.
	csvBody := hits(envelopeCall(t, map[string]any{"format": "csv", "log": roleCSV, "constraints": role}), 3)
	if !bytes.Contains(csvBody, []byte(`"abstracted":"case,`)) {
		t.Fatalf("CSV hit did not answer in CSV: %.200s", csvBody)
	}
	check("after CSV hits", 2)

	omit := url.Values{"constraints": {role}, "abstracted": {"false"}}
	if body := hits(rawCall(omit, logXES), 3); bytes.Contains(body, []byte(`"abstracted"`)) {
		t.Fatalf("omitAbstracted hit carries the log: %.200s", body)
	}
	check("after omitAbstracted hits", 3)

	// Keys that never repeat, a batch over a cached set and an async hit
	// render nothing.
	for _, set := range []string{"|g| <= 1", "|g| <= 2", "distinct(role) <= 2"} {
		if body := rawCall(url.Values{"constraints": {set}}, logXES).mustOK(t, srv); bytes.Contains(body, []byte(`"cached":true`)) {
			t.Fatalf("%s: a fresh key hit: %.200s", set, body)
		}
	}
	rawCall(url.Values{"constraints": {role, "|g| <= 1"}}, logXES).mustOK(t, srv)
	async := rawCall(url.Values{"constraints": {role}, "async": {"true"}}, logXES)
	if status, _, body := async.send(t, srv); status != http.StatusAccepted {
		t.Fatalf("async hit: status %d: %s", status, body)
	}
	check("after misses, a batch and an async hit", 3)
	if st := svc.Stats().Cache; st.Hits != 5+3+3+2+1 || st.Misses != 1+3 {
		t.Fatalf("cache hits %d, misses %d; want 14 and 4", st.Hits, st.Misses)
	}
}

// TestHitBodyConcurrent: first hits that race on one result may each
// render, but they all send the same bytes, every render is counted, and a
// later hit renders nothing.
func TestHitBodyConcurrent(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	res, _, err := svc.Do(context.Background(), roleRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := svc.hitBody(res, "xes", false)
			if err != nil {
				t.Error(err)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := range bodies {
		sameBytes(t, fmt.Sprintf("hit %d against the first", i+1), bodies[i], bodies[0])
	}
	rendered := svc.Stats().Cache.Rendered
	if rendered < 1 || rendered > int64(len(bodies)) {
		t.Fatalf("cache.rendered = %d after %d racing first hits", rendered, len(bodies))
	}
	body, err := svc.hitBody(res, "xes", false)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "a later hit against the first", body, bodies[0])
	if got := svc.Stats().Cache.Rendered; got != rendered {
		t.Fatalf("a later hit rendered: cache.rendered %d, was %d", got, rendered)
	}
}
