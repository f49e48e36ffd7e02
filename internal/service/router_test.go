package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"gecco/internal/procgen"
)

// testCluster is an in-process shard cluster: n services, each wrapped in a
// Router that knows the full peer list, exactly like n gecco-serve processes
// started with -peers/-advertise.
type testCluster struct {
	svcs    []*Service
	routers []*Router
	servers []*httptest.Server
	ids     []string
}

// newTestCluster boots n shards. Routers need every peer's URL at
// construction while httptest only yields a URL after the server exists, so
// the servers dispatch through a late-bound closure over the routers slice
// (filled before any request is made).
func newTestCluster(t *testing.T, n int, base Options) *testCluster {
	t.Helper()
	c := &testCluster{
		svcs:    make([]*Service, n),
		routers: make([]*Router, n),
		servers: make([]*httptest.Server, n),
		ids:     make([]string, n),
	}
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		c.ids[i] = fmt.Sprintf("shard-%d", i)
		opts := base
		opts.JobIDPrefix = fmt.Sprintf("s%d-", i)
		c.svcs[i] = New(opts)
		c.servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			c.routers[i].ServeHTTP(w, r)
		}))
		peers[i] = c.servers[i].URL
	}
	for i := 0; i < n; i++ {
		rt, err := NewRouter(c.svcs[i], ShardOptions{
			Peers:     peers,
			MemberIDs: c.ids,
			Self:      i,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.forwardRetries = 2
		rt.forwardBackoff = 5 * time.Millisecond
		rt.probeTimeout = time.Second
		rt.downCooldown = 200 * time.Millisecond
		c.routers[i] = rt
	}
	t.Cleanup(func() {
		for i := range c.servers {
			c.servers[i].Close()
			c.svcs[i].Close()
		}
	})
	return c
}

// ownerIndex resolves which shard index the ring places a key on.
func (c *testCluster) ownerIndex(t *testing.T, key string) int {
	t.Helper()
	owner := c.routers[0].Ring().Owner(key)
	for i, id := range c.ids {
		if id == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a cluster member", owner)
	return -1
}

func localStats(t *testing.T, srv *httptest.Server) Stats {
	t.Helper()
	var st Stats
	getJSON(t, srv.URL+"/stats?scope=local", &st)
	return st
}

// TestRouterDigestAffinity: the same log posted through different entry
// routers runs on exactly one shard — the ring owner — and the second post
// is a cache hit there, proving sessions and results share a home.
func TestRouterDigestAffinity(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	logXES := runningExampleXES(t)
	params := url.Values{"constraints": {"distinct(role) <= 1"}, "mode": {"dfg"}}
	owner := c.ownerIndex(t, logXES)
	entry := (owner + 1) % 3 // deliberately not the owner

	resp, out := postAbstract(t, c.servers[entry], logXES, params)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	if !out.Feasible {
		t.Fatalf("infeasible: %s", out.Diagnostics)
	}
	if !strings.HasPrefix(out.JobID, fmt.Sprintf("s%d-", owner)) {
		t.Fatalf("job %q did not run on ring owner shard-%d", out.JobID, owner)
	}

	// Post the identical request through a *different* router: it must land
	// on the same shard and be served from that shard's result cache.
	resp2, out2 := postAbstract(t, c.servers[(owner+2)%3], logXES, params)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if !out2.Cached {
		t.Fatal("identical request via another router missed the owner's cache")
	}

	for i := range c.svcs {
		st := localStats(t, c.servers[i])
		wantStarted := int64(0)
		if i == owner {
			wantStarted = 1
		}
		if st.Jobs.Started != wantStarted {
			t.Errorf("shard %d started %d jobs, want %d", i, st.Jobs.Started, wantStarted)
		}
	}
}

// TestRouterSharesLogMemo: an envelope posted straight to its owner is
// decoded by the owner's router and then by its handler, through one log
// memo, so the log string is unescaped once however often it is sent.
func TestRouterSharesLogMemo(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	logXES := runningExampleXES(t)
	body, err := json.Marshal(AbstractRequest{Log: logXES, Constraints: "distinct(role) <= 1", Mode: "dfg"})
	if err != nil {
		t.Fatal(err)
	}
	owner := c.ownerIndex(t, logXES)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(c.servers[owner].URL+"/abstract", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: status %d", i+1, resp.StatusCode)
		}
	}
	if n := localStats(t, c.servers[owner]).Uploads.Decoded; n != 1 {
		t.Fatalf("owner's uploads.decoded = %d, want 1", n)
	}
}

// TestRouterDecodesAnUploadOnce: a router that serves an envelope itself
// hands its handler the log it decoded, so the node unescapes the log
// string once. The service's log memo holds nothing, as where
// cipher.NewGCM refuses, so every decode unescapes and uploads.decoded
// counts each.
func TestRouterDecodesAnUploadOnce(t *testing.T) {
	svc := New(Options{})
	t.Cleanup(svc.Close)
	svc.logs.gcm = nil
	rt, err := NewRouter(svc, ShardOptions{Peers: []string{"http://self"}, Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	logXES := runningExampleXES(t)
	for _, tc := range []struct {
		path string
		env  any
	}{
		{"/abstract", AbstractRequest{Log: logXES, Constraints: "distinct(role) <= 1", Mode: "dfg"}},
		{"/pipeline", PipelineHTTPRequest{Log: logXES, Constraints: "distinct(role) <= 1"}},
	} {
		body, err := json.Marshal(tc.env)
		if err != nil {
			t.Fatal(err)
		}
		before := svc.Stats().Uploads.Decoded
		req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, rec.Code, rec.Body)
		}
		if n := svc.Stats().Uploads.Decoded - before; n != 1 {
			t.Fatalf("%s: uploads.decoded rose by %d, want 1", tc.path, n)
		}
	}
}

// TestRouterHandsItsBodyToTheLocalHandler: a router that serves an upload
// itself hands its handler the body it read. The handler's readBody
// returns that buffer and allocates nothing, where reading a replayed copy
// of the 1.5 MB envelope would allocate the body again.
func TestRouterHandsItsBodyToTheLocalHandler(t *testing.T) {
	svc := New(Options{})
	t.Cleanup(svc.Close)
	rt, err := NewRouter(svc, ShardOptions{Peers: []string{"http://self"}, Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(AbstractRequest{Log: xesText(t, procgen.LoanLog(200, 1)), Constraints: "distinct(role) <= 3"})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var allocated uint64
	rt.local = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, _ = readBody(w, r)
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
	})
	req := httptest.NewRequest(http.MethodPost, "/abstract", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rt.ServeHTTP(httptest.NewRecorder(), req)
	if !bytes.Equal(got, body) {
		t.Fatalf("the local handler read %d bytes, not the %d-byte body", len(got), len(body))
	}
	if allocated >= uint64(len(body))/2 {
		t.Fatalf("the local handler's readBody allocated %d bytes for a %d-byte body the router had read", allocated, len(body))
	}
}

// TestRouterJSONAndRawBodiesAgree: the JSON envelope and the raw-body form
// of the same log must route to the same shard (the key is the log text, not
// the wire bytes).
func TestRouterJSONAndRawBodiesAgree(t *testing.T) {
	c := newTestCluster(t, 4, Options{})
	logXES := runningExampleXES(t)
	owner := c.ownerIndex(t, logXES)
	entry := (owner + 1) % 4

	env, err := json.Marshal(AbstractRequest{Log: logXES, Constraints: "distinct(role) <= 1"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.servers[entry].URL+"/abstract", "application/json", strings.NewReader(string(env)))
	if err != nil {
		t.Fatal(err)
	}
	var out AbstractResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	if !strings.HasPrefix(out.JobID, fmt.Sprintf("s%d-", owner)) {
		t.Fatalf("JSON-envelope job %q not on owner shard-%d", out.JobID, owner)
	}
}

// TestRouterForwardedJobPoll: an async job submitted through one router is
// pollable through any other — the shard prefix in the job ID routes the
// poll without a lookup table.
func TestRouterForwardedJobPoll(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	logXES := runningExampleXES(t)
	params := url.Values{"constraints": {"distinct(role) <= 1"}, "async": {"true"}}

	resp, out := postAbstract(t, c.servers[0], logXES, params)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	owner := c.ownerIndex(t, logXES)
	if !strings.HasPrefix(out.JobID, fmt.Sprintf("s%d-", owner)) {
		t.Fatalf("async job %q not minted by owner shard-%d", out.JobID, owner)
	}

	// Poll through every router (including ones that never saw the submit)
	// until done.
	deadline := time.Now().Add(10 * time.Second)
	for entry := 0; ; entry = (entry + 1) % 3 {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		var job AbstractResponse
		getJSON(t, c.servers[entry].URL+"/jobs/"+out.JobID, &job)
		if job.State == string(StateDone) {
			if !job.Feasible {
				t.Fatalf("job finished infeasible: %+v", job)
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReadyzDrain (satellite): /healthz is liveness and stays 200 through a
// drain; /readyz is readiness and flips to 503 so routers and load
// balancers take the shard out of rotation.
func TestReadyzDrain(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	check := func(path string, wantCode int, wantStatus string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, wantCode)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body["status"] != wantStatus {
			t.Fatalf("%s: status field %q, want %q", path, body["status"], wantStatus)
		}
	}
	check("/healthz", http.StatusOK, "ok")
	check("/readyz", http.StatusOK, "ready")
	svc.StartDrain()
	check("/healthz", http.StatusOK, "ok") // liveness unaffected: do not restart a draining shard
	check("/readyz", http.StatusServiceUnavailable, "draining")
}

// TestRouterClusterStats: /stats through any router merges every shard's
// counters and carries a per-shard breakdown; ?scope=local stays local.
func TestRouterClusterStats(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	logXES := runningExampleXES(t)
	if resp, out := postAbstract(t, c.servers[0], logXES, url.Values{"constraints": {"distinct(role) <= 1"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}

	var cs ClusterStats
	getJSON(t, c.servers[1].URL+"/stats", &cs)
	if len(cs.Shards) != 3 {
		t.Fatalf("cluster stats has %d shards, want 3: %+v", len(cs.Shards), cs)
	}
	if len(cs.Unreachable) != 0 {
		t.Fatalf("unexpected unreachable shards: %v", cs.Unreachable)
	}
	if cs.Jobs.Started != 1 {
		t.Fatalf("merged jobs.started = %d, want 1", cs.Jobs.Started)
	}
	var sum int64
	for _, st := range cs.Shards {
		sum += st.Jobs.Started
	}
	if sum != cs.Jobs.Started {
		t.Fatalf("per-shard breakdown sums to %d, merged says %d", sum, cs.Jobs.Started)
	}
	// The cluster's aggregate capacity grows linearly in members — the point
	// of scale-out.
	one := localStats(t, c.servers[0])
	if cs.Cache.Capacity != one.Cache.Capacity*3 {
		t.Fatalf("cluster cache capacity %d, want 3x single shard (%d)", cs.Cache.Capacity, one.Cache.Capacity)
	}
}

// TestRouterHealsToSuccessor: when a key's owner is unreachable, the request
// retries, marks the peer down, and lands on the ring successor — the shard
// that would own the key if the ring were rebuilt without the dead member.
func TestRouterHealsToSuccessor(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	logXES := runningExampleXES(t)
	owner := c.ownerIndex(t, logXES)
	seq := c.routers[0].Ring().Sequence(logXES)

	// Kill the owner outright: connection refused on every forward attempt.
	c.servers[owner].CloseClientConnections()
	c.servers[owner].Close()

	entry := (owner + 1) % 3
	resp, out := postAbstract(t, c.servers[entry], logXES, url.Values{"constraints": {"distinct(role) <= 1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after owner death: %+v", resp.StatusCode, out)
	}
	successor := seq[1]
	if entry == owner {
		t.Fatal("test bug: entry router is the dead owner")
	}
	var wantPrefix string
	for i, id := range c.ids {
		if id == successor {
			wantPrefix = fmt.Sprintf("s%d-", i)
		}
	}
	if !strings.HasPrefix(out.JobID, wantPrefix) {
		t.Fatalf("job %q did not heal to ring successor %s", out.JobID, successor)
	}

	// Cluster stats now reports the dead shard as unreachable instead of
	// silently shrinking the totals.
	var cs ClusterStats
	getJSON(t, c.servers[entry].URL+"/stats", &cs)
	if len(cs.Unreachable) != 1 || cs.Unreachable[0] != c.ids[owner] {
		t.Fatalf("unreachable = %v, want [%s]", cs.Unreachable, c.ids[owner])
	}
}

// TestRouterDrainSpillWarmOpen exercises the full departure protocol: a
// draining shard flips /readyz, finishes its work, spills sessions to the
// shared warm tier on Close, and the ring successor warm-opens the .gidx
// instead of re-parsing the log.
func TestRouterDrainSpillWarmOpen(t *testing.T) {
	dataDir := t.TempDir()
	c := newTestCluster(t, 3, Options{DataDir: dataDir})
	logXES := runningExampleXES(t)
	owner := c.ownerIndex(t, logXES)
	entry := (owner + 1) % 3

	if resp, out := postAbstract(t, c.servers[entry], logXES, url.Values{"constraints": {"distinct(role) <= 1"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}

	// Depart the owner: drain (readiness off), then close (spills the live
	// session's index to dataDir) and stop serving.
	c.svcs[owner].StartDrain()
	resp, err := http.Get(c.servers[owner].URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining shard /readyz = %d, want 503", resp.StatusCode)
	}
	c.svcs[owner].Close()
	c.servers[owner].CloseClientConnections()
	c.servers[owner].Close()

	// Fresh constraints on the same log through a surviving router: the
	// successor owns the key now and must warm-open the spilled index.
	resp2, out2 := postAbstract(t, c.servers[entry], logXES, url.Values{"constraints": {"distinct(role) <= 2"}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d after drain: %+v", resp2.StatusCode, out2)
	}
	warmOpens := int64(0)
	for i := range c.svcs {
		if i == owner {
			continue
		}
		if st := localStats(t, c.servers[i]); st.Disk != nil {
			warmOpens += st.Disk.WarmOpens
		}
	}
	if warmOpens == 0 {
		t.Fatal("no surviving shard warm-opened the departed shard's spilled index")
	}
}

// TestRouterStreamAffinityAndProxy: a named stream posted through a
// non-owner router is proxied full-duplex to its owner; its state lives
// there (snapshot via yet another router finds it) and appends through any
// router hit the same window.
func TestRouterStreamAffinityAndProxy(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	const name = "orders"
	owner := c.ownerIndex(t, "stream:"+name)
	entry := (owner + 1) % 3

	traces := procgen.RunningExample(40, 3).Traces
	params := streamParamsWith(map[string]string{"stream": name, "window": "20", "refresh": "10"})
	_, ack, lines := postStream(t, c.servers[entry], params, ndjsonBody(t, traces[:30]))
	if !ack.Created {
		t.Fatal("first request did not create the stream")
	}
	if len(lines) != 30 {
		t.Fatalf("got %d lines, want 30", len(lines))
	}
	for i, l := range lines {
		if l.Error != "" {
			t.Fatalf("line %d: %s", i, l.Error)
		}
	}

	// The stream state must live on the ring owner, not the entry shard.
	if st := localStats(t, c.servers[owner]); st.Streams.Live != 1 {
		t.Fatalf("owner shard has %d live streams, want 1", st.Streams.Live)
	}
	if st := localStats(t, c.servers[entry]); st.Streams.Live != 0 {
		t.Fatalf("entry shard has %d live streams, want 0", st.Streams.Live)
	}

	// Append through a third router: same window (not re-created).
	_, ack2, lines2 := postStream(t, c.servers[(owner+2)%3], params, ndjsonBody(t, traces[30:]))
	if ack2.Created {
		t.Fatal("append re-created the stream on the wrong shard")
	}
	if len(lines2) != 10 {
		t.Fatalf("append got %d lines, want 10", len(lines2))
	}

	// Snapshot and close through the router as well.
	var snap map[string]any
	getJSON(t, c.servers[entry].URL+"/stream/"+name, &snap)
	if snap["traces"] == nil {
		t.Fatalf("snapshot missing trace count: %v", snap)
	}
	resp, err := http.Post(c.servers[entry].URL+"/stream/"+name+"/close", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close through router: status %d", resp.StatusCode)
	}
	if st := localStats(t, c.servers[owner]); st.Streams.Live != 0 {
		t.Fatal("close through router did not drop the owner's stream state")
	}
}

// TestRouterChaosStreamReplay is the chaos drill the ISSUE demands: kill a
// shard mid-NDJSON-stream, let the ring heal, replay the session through a
// surviving router, and require the replayed output to be byte-identical to
// a control run on a standalone server — proving a failover is invisible to
// a replaying client.
func TestRouterChaosStreamReplay(t *testing.T) {
	const name = "chaos"
	traces := procgen.RunningExample(36, 3).Traces
	params := streamParamsWith(map[string]string{"stream": name, "window": "18", "refresh": "9"})
	body := ndjsonBody(t, traces)

	// Control: the whole session against a fresh standalone server.
	ctrlSrv, _ := newTestServer(t, Options{})
	ctrlResp, err := http.Post(ctrlSrv.URL+"/stream?"+params.Encode(), "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	control, err := io.ReadAll(ctrlResp.Body)
	ctrlResp.Body.Close()
	if err != nil || ctrlResp.StatusCode != http.StatusOK {
		t.Fatalf("control run failed: status %d err %v", ctrlResp.StatusCode, err)
	}

	c := newTestCluster(t, 3, Options{})
	owner := c.ownerIndex(t, "stream:"+name)
	entry := (owner + 1) % 3

	// Open a live full-duplex stream through a non-owner router and feed it
	// half the traces, reading each result line as it comes back.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, c.servers[entry].URL+"/stream?"+params.Encode(), pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	liveResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("opening live stream: %v", err)
	}
	br := bufio.NewReader(liveResp.Body)
	if _, err := br.ReadString('\n'); err != nil { // ack line
		t.Fatalf("reading ack: %v", err)
	}
	wireLines := strings.SplitAfter(strings.TrimRight(body, "\n"), "\n")
	for i := 0; i < len(wireLines)/2; i++ {
		if _, err := pw.Write([]byte(wireLines[i])); err != nil {
			t.Fatalf("writing trace %d: %v", i, err)
		}
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading result %d: %v", i, err)
		}
	}

	// Kill the owner mid-stream. The in-flight proxied session dies with it;
	// the client's contract is to replay.
	c.servers[owner].CloseClientConnections()
	c.servers[owner].Close()
	pw.Close()
	io.Copy(io.Discard, liveResp.Body) // drain whatever the broken proxy relays
	liveResp.Body.Close()

	// Replay the full session through a surviving router. The ring heals the
	// stream key to the successor, which starts a fresh window; the replayed
	// output must match the control run byte for byte.
	var replay []byte
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Post(c.servers[entry].URL+"/stream?"+params.Encode(), "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatalf("replaying stream: %v", err)
		}
		replay, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK && !bytes_ContainsErrorLine(replay) {
			break
		}
		// The first replay can race the down-marking (a 502 while probes
		// exhaust); replaying again is exactly what a real client does.
		if time.Now().After(deadline) {
			t.Fatalf("replay did not succeed before deadline: status %d body %s", resp.StatusCode, replay)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if string(replay) != string(control) {
		t.Fatalf("replayed stream differs from control run\ncontrol (%d bytes):\n%s\nreplay (%d bytes):\n%s",
			len(control), control, len(replay), replay)
	}

	// And the healed home really is the successor: state lives there now.
	seq := c.routers[entry].Ring().Sequence("stream:" + name)
	var successorIdx int
	for i, id := range c.ids {
		if id == seq[1] {
			successorIdx = i
		}
	}
	if st := localStats(t, c.servers[successorIdx]); st.Streams.Live != 1 {
		t.Fatalf("successor shard-%d has %d live streams, want 1", successorIdx, st.Streams.Live)
	}
}

// bytes_ContainsErrorLine reports whether an NDJSON response carries a
// terminal error line (the HTTP status is already 200 by then).
func bytes_ContainsErrorLine(raw []byte) bool {
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		var sl StreamLine
		if json.Unmarshal([]byte(line), &sl) == nil && sl.Error != "" {
			return true
		}
	}
	return false
}

// TestRouterCoordinator: a pure coordinator (svc == nil) forwards
// everything and serves cluster stats, liveness, and readiness itself.
func TestRouterCoordinator(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	coord, err := NewRouter(nil, ShardOptions{
		Peers:     []string{c.servers[0].URL, c.servers[1].URL},
		MemberIDs: c.ids,
		Self:      -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.forwardRetries = 2
	coord.forwardBackoff = 5 * time.Millisecond
	front := httptest.NewServer(coord)
	defer front.Close()

	logXES := runningExampleXES(t)
	resp, out := postAbstract(t, front, logXES, url.Values{"constraints": {"distinct(role) <= 1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	owner := c.ownerIndex(t, logXES)
	if !strings.HasPrefix(out.JobID, fmt.Sprintf("s%d-", owner)) {
		t.Fatalf("coordinator sent job %q to the wrong shard (owner shard-%d)", out.JobID, owner)
	}

	var h map[string]string
	getJSON(t, front.URL+"/healthz", &h)
	if h["role"] != "coordinator" {
		t.Fatalf("healthz role = %q, want coordinator", h["role"])
	}
	getJSON(t, front.URL+"/readyz", &h)
	if h["status"] != "ready" {
		t.Fatalf("readyz status = %q, want ready", h["status"])
	}
	var cs ClusterStats
	getJSON(t, front.URL+"/stats", &cs)
	if len(cs.Shards) != 2 {
		t.Fatalf("coordinator cluster stats has %d shards, want 2", len(cs.Shards))
	}
	if cs.Jobs.Started != 1 {
		t.Fatalf("merged jobs.started = %d, want 1", cs.Jobs.Started)
	}
}

// TestRouterStatsCapped: a peer whose /stats answer is larger than
// maxStatsBytes is listed as unreachable and left out of the cluster
// totals, while the same counters under the cap merge.
func TestRouterStatsCapped(t *testing.T) {
	svc := New(Options{})
	t.Cleanup(svc.Close)
	peer, err := json.Marshal(Stats{Jobs: JobStats{Started: 7}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		pad     int
		dropped bool
	}{{"under the cap", 1000, false}, {"over the cap", maxStatsBytes, true}} {
		fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(peer)
			w.Write([]byte(strings.Repeat(" ", tc.pad)))
		}))
		rt, err := NewRouter(svc, ShardOptions{
			Peers:     []string{"http://127.0.0.1:1", fake.URL},
			MemberIDs: []string{"shard-0", "shard-1"},
			Self:      0,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		fake.Close()
		var cs ClusterStats
		if err := json.Unmarshal(rec.Body.Bytes(), &cs); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, merged := cs.Shards["shard-1"]
		unreachable := len(cs.Unreachable) == 1 && cs.Unreachable[0] == "shard-1"
		if unreachable != tc.dropped || merged == tc.dropped {
			t.Fatalf("%s: unreachable %v, shards %v", tc.name, cs.Unreachable, cs.Shards)
		}
		want := int64(7)
		if tc.dropped {
			want = 0
		}
		if cs.Jobs.Started != want {
			t.Fatalf("%s: merged jobs.started %d, want %d", tc.name, cs.Jobs.Started, want)
		}
	}
}

// TestRouterRefusesNoPeers: a router needs a peer set, with or without a
// local service; a single node serves Handler(svc) without a router.
func TestRouterRefusesNoPeers(t *testing.T) {
	svc := New(Options{})
	t.Cleanup(svc.Close)
	for _, tc := range []struct {
		name string
		svc  *Service
	}{{"pure coordinator", nil}, {"local service", svc}} {
		_, err := NewRouter(tc.svc, ShardOptions{Self: -1})
		if err == nil || !strings.Contains(err.Error(), "no peers") {
			t.Fatalf("%s: NewRouter with no peers: %v, want the no-peers refusal", tc.name, err)
		}
	}
}

// TestRouterRejectsMalformedEnvelope: the router answers a malformed JSON
// envelope with encoding/json's 400 itself, whether or not its log scans
// cleanly, rather than forwarding it to the owner.
func TestRouterRejectsMalformedEnvelope(t *testing.T) {
	coord, err := NewRouter(nil, ShardOptions{
		Peers:     []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		MemberIDs: []string{"shard-0", "shard-1"},
		Self:      -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.forwardRetries = 1
	coord.forwardBackoff = time.Millisecond
	// A valid envelope first, which no shard can take: the coordinator's
	// log memo learns the log the malformed bodies carry.
	valid := httptest.NewRequest(http.MethodPost, "/abstract", strings.NewReader(`{"log":"<log/>"}`))
	valid.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, valid)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("valid envelope: status %d, want 502 with no shard reachable", rec.Code)
	}
	for _, body := range []string{`{"mode":tru,"log":"<log/>"}`, `{"log":"<log/>","mode":}`} {
		var env struct {
			Log string `json:"log"`
		}
		want := "decoding JSON envelope: " + json.Unmarshal([]byte(body), &env).Error()
		req := httptest.NewRequest(http.MethodPost, "/abstract", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		coord.ServeHTTP(rec, req)
		var out errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if rec.Code != http.StatusBadRequest || out.Error != want {
			t.Fatalf("%s: status %d %q, want 400 %q", body, rec.Code, out.Error, want)
		}
	}
}

// scaleOutSets are the six Table VI core sets (A, M, N, Gr, C1, C2), each
// with the §VI-A group-size cap, in wire form: one batch request solves all
// six against one log, as Table VI visits each (log, set) cell.
var scaleOutSets = []string{
	"distinct(role) <= 3\n|g| <= 8",
	"sum(duration) >= 101\n|g| <= 8",
	"avg(duration) <= 500000\n|g| <= 8",
	"|G| <= 3\n|g| <= 8",
	"distinct(role) <= 3\navg(duration) <= 500000\n|G| <= 3\n|g| <= 8",
	"distinct(role) <= 3\nsum(duration) >= 101\navg(duration) <= 500000\n|G| <= 3\n|g| <= 8",
}

// scaleOutSeeds are chosen so that the serialised log of slot i lands on
// shard i%4 of the 4-member ring and on shard i%2 of the 2-member ring, and
// so that its six-set batch solves in tens of milliseconds. Consistent
// hashing balances only in expectation; with 8 keys a natural placement
// can pile most of the working set onto one shard.
var scaleOutSeeds = [8]int64{7100, 8102, 9101, 10163, 11108, 12100, 13106, 14102}

// TestRouterScaleOutIsCacheCapacity pins what adding shards buys: aggregate
// cache capacity, not CPU. Every shard keeps 15 results and 4 sessions, and
// the working set is 8 logs × 6 sets = 48 results. On 1 shard both LRUs
// thrash cyclically; on 2 the sessions (4 logs each) fit while the results
// (24 each) still thrash; on 4 everything fits (2 logs and 12 results
// each), so the second round is all result-cache hits. Requests go one at
// a time through shard 0's router: a warm-up round, then the measured one.
// The per-shard job counts also pin the balanced placement. Counters cannot
// see a slower router hop or hit path; the benchmark's repeat-hot workload
// times both.
func TestRouterScaleOutIsCacheCapacity(t *testing.T) {
	bodies := make([][]byte, len(scaleOutSeeds))
	for i, seed := range scaleOutSeeds {
		log := procgen.BuildLog(procgen.CollectionSpec{
			Ref:           fmt.Sprintf("sb%02d", i),
			Classes:       8 + i%5,
			Traces:        80,
			Seed:          seed,
			PaperVariants: 40,
			PaperAvgLen:   float64(10 + i%5),
		})
		body, err := json.Marshal(AbstractRequest{
			Log:            xesText(t, log),
			ConstraintSets: scaleOutSets,
			Mode:           "dfg",
			OmitAbstracted: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	for _, want := range []struct {
		shards                     int
		cacheHits                  int64
		sessionHits, sessionMisses int64
		jobs                       []int64
	}{
		{1, 0, 80, 16, []int64{96}},
		{2, 0, 88, 8, []int64{48, 48}},
		{4, 48, 40, 8, []int64{12, 12, 12, 12}},
	} {
		t.Run(fmt.Sprintf("%d shards", want.shards), func(t *testing.T) {
			c := newTestCluster(t, want.shards, Options{MaxConcurrent: 1, CacheCapacity: 15, SessionCapacity: 4})
			for round := 0; round < 2; round++ {
				for i, body := range bodies {
					resp, err := http.Post(c.servers[0].URL+"/abstract", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					var batch BatchResponse
					err = json.NewDecoder(resp.Body).Decode(&batch)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || len(batch.Results) != len(scaleOutSets) {
						t.Fatalf("round %d, log %d: status %d, %d results, decode error %v",
							round, i, resp.StatusCode, len(batch.Results), err)
					}
					for j, item := range batch.Results {
						if item.Error != "" {
							t.Fatalf("round %d, log %d, set %d: %s", round, i, j+1, item.Error)
						}
					}
				}
			}
			var sum Stats
			jobs := make([]int64, want.shards)
			for i, srv := range c.servers {
				st := localStats(t, srv)
				sum = MergeStats(sum, st)
				jobs[i] = st.Jobs.Started
			}
			cache, sessions := sum.Cache, sum.Sessions
			lookups := int64(2 * len(bodies) * len(scaleOutSets))
			if cache.Hits != want.cacheHits || cache.Hits+cache.Misses != lookups ||
				sessions.Hits != want.sessionHits || sessions.Misses != want.sessionMisses ||
				fmt.Sprint(jobs) != fmt.Sprint(want.jobs) {
				t.Errorf("result-cache hits %d of %d, session hits/misses %d/%d, jobs per shard %v; "+
					"want %d of %d, %d/%d, %v. If the placement moved, re-derive scaleOutSeeds so that every "+
					"cluster size splits the logs evenly; do not loosen these counts",
					cache.Hits, cache.Hits+cache.Misses, sessions.Hits, sessions.Misses, jobs,
					want.cacheHits, lookups, want.sessionHits, want.sessionMisses, want.jobs)
			}
		})
	}
}
