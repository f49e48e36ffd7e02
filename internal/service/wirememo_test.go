package service

import (
	"net/http"
	"net/url"
	"strconv"
	"testing"
)

// TestWireMemoSkipsReparse pins the wire-digest fast path end to end: a
// byte-identical re-upload must produce the same response without the
// server parsing the log again. The parse is observed through the session
// cache — with sessions disabled and the result cached, the lazy request
// has no reason to touch the log at all, so a missing loadLog invocation
// is exactly what "skipped the parse" means. We assert the observable
// contract instead: responses identical, second one cached, and a third
// request with a different constraint set (result-cache miss) still
// succeeds, proving the lazy loader recovers the events when a solve
// actually needs them.
func TestWireMemoSkipsReparse(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	logXES := runningExampleXES(t)
	params := url.Values{"constraints": {"distinct(role) <= 1"}, "mode": {"dfg"}}

	resp1, out1 := postAbstract(t, srv, logXES, params)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d", resp1.StatusCode)
	}
	if _, ok := svc.wire.get(wireKey("xes", logXES)); !ok {
		t.Fatal("first upload did not populate the wire memo")
	}

	resp2, out2 := postAbstract(t, srv, logXES, params)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d", resp2.StatusCode)
	}
	if !out2.Cached {
		t.Fatal("byte-identical re-upload missed the result cache")
	}
	if out2.Abstracted != out1.Abstracted || out2.Distance != out1.Distance {
		t.Fatal("lazy-path response differs from parsed-path response")
	}

	// A fresh constraint set misses the result cache, so the solve must
	// transparently obtain the events (live session or lazy parse).
	resp3, out3 := postAbstract(t, srv, logXES, url.Values{"constraints": {"distinct(role) <= 2"}, "mode": {"dfg"}})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("third: status %d", resp3.StatusCode)
	}
	if !out3.Feasible {
		t.Fatalf("third request infeasible: %s", out3.Diagnostics)
	}
}

// TestWireMemoEmptyLogStillRejected closes the validation loophole: an
// empty (but well-formed) upload is rejected with 400, and a byte-identical
// retry must be rejected the same way rather than slipping through the
// memo's lazy path.
func TestWireMemoEmptyLogStillRejected(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	empty := "<log xes.version=\"1.0\"></log>"
	params := url.Values{"constraints": {"distinct(role) <= 1"}}
	for i := 0; i < 2; i++ {
		resp, _ := postAbstract(t, srv, empty, params)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400", i+1, resp.StatusCode)
		}
	}
}

// TestOmitAbstracted pins the response-rendering knob: abstracted=false
// drops the serialised log but nothing else, and — being a rendering
// choice — shares a cache entry with the full-fat form.
func TestOmitAbstracted(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	logXES := runningExampleXES(t)
	full := url.Values{"constraints": {"distinct(role) <= 1"}, "mode": {"dfg"}}
	lean := url.Values{"constraints": {"distinct(role) <= 1"}, "mode": {"dfg"}, "abstracted": {"false"}}

	_, out1 := postAbstract(t, srv, logXES, full)
	if out1.Abstracted == "" {
		t.Fatal("full request returned no abstracted log")
	}
	resp2, out2 := postAbstract(t, srv, logXES, lean)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("lean: status %d", resp2.StatusCode)
	}
	if out2.Abstracted != "" {
		t.Fatal("abstracted=false still returned the serialised log")
	}
	if !out2.Cached {
		t.Fatal("abstracted=false split the cache key — it must be rendering-only")
	}
	if out2.Distance != out1.Distance || len(out2.GroupClasses) != len(out1.GroupClasses) {
		t.Fatal("lean response dropped more than the abstracted log")
	}
}

// TestWireMemoLRUEviction: the memo holds wireMemoCapacity identities, and
// one more drops the least recently used, not the oldest inserted.
func TestWireMemoLRUEviction(t *testing.T) {
	m := newWireMemo()
	ids := make([]wireID, wireMemoCapacity+1)
	for i := range ids {
		ids[i] = wireKey("xes", strconv.Itoa(i))
	}
	for i := 0; i < wireMemoCapacity; i++ {
		m.put(ids[i], "digest-"+strconv.Itoa(i))
	}
	if d, ok := m.get(ids[0]); !ok || d != "digest-0" {
		t.Fatalf("first key: %q, %v", d, ok)
	}
	m.put(ids[wireMemoCapacity], "digest-new")
	if _, ok := m.get(ids[1]); ok {
		t.Fatal("the second key, the least recently used, survived")
	}
	for _, i := range []int{0, 2, wireMemoCapacity} {
		if _, ok := m.get(ids[i]); !ok {
			t.Fatalf("key %d was evicted", i)
		}
	}
}
