package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gecco/internal/shard"
)

// maxStatsBytes caps a peer's /stats answer. A real one is a few KB; a
// peer sending more is misbehaving and must not hold the router's memory.
const maxStatsBytes = 1 << 20

// ForwardHeader marks a request as already routed. A shard that receives it
// serves locally unconditionally — two routers with momentarily divergent
// down-lists must not bounce a request between each other.
const ForwardHeader = "X-Gecco-Forward"

// ShardOptions configures a Router over a fixed peer set.
type ShardOptions struct {
	// Peers are the dial base URLs of every shard in the cluster, e.g.
	// "http://10.0.0.1:8080", in a fixed order shared by all nodes.
	Peers []string
	// MemberIDs are the ring identities of the peers, index-aligned with
	// Peers. Defaults to the Peers addresses themselves. Stable IDs
	// ("shard-0", ...) decouple placement from dial addresses, so moving a
	// shard to a new port does not reshuffle the keyspace.
	MemberIDs []string
	// Self is this node's index into Peers, or -1 for a pure coordinator
	// that owns no keys and only forwards (its svc is nil).
	Self int
}

// Forwarding bounds of a Router.
const (
	// forwardRetries is how many times a buffered forward is attempted per
	// peer before the peer is marked down and the ring heals to its
	// successor.
	forwardRetries = 3
	// forwardBackoff is the sleep between retries, doubling each attempt.
	forwardBackoff = 25 * time.Millisecond
	// probeTimeout bounds the /readyz probe made before proxying a stream
	// (whose body cannot be replayed, so the owner is probed first) and
	// each peer's /stats fetch.
	probeTimeout = 2 * time.Second
	// downCooldown is how long a peer that exhausted its retries stays out
	// of the preference order before being tried again.
	downCooldown = 3 * time.Second
)

// Router fronts a shard cluster: it computes each request's routing key
// (the uploaded log's content for /abstract and /pipeline, the stream name
// for /stream, the job-ID prefix for /jobs) before any load-shedding, serves
// the request locally when the ring places the key here, and otherwise
// forwards it to the owning shard — with retry/backoff on connection
// failure and a heal to the ring successor when a peer stays unreachable.
// It implements http.Handler and replaces Handler(svc) as the top-level mux
// in sharded deployments; with svc == nil it is a pure coordinator.
type Router struct {
	svc   *Service
	local http.Handler // Handler(svc); nil on a pure coordinator
	opts  ShardOptions
	ring  *shard.Ring
	// logs is a pure coordinator's log memo; a router with a local
	// service decodes through the service's, which its handlers share.
	logs *logMemo

	selfID   string
	addrByID map[string]string

	// downMu guards downUntil: peers that exhausted forward retries are
	// benched for downCooldown so subsequent requests heal straight to the
	// ring successor instead of re-paying the connect timeout.
	downMu    sync.Mutex
	downUntil map[string]time.Time

	// client performs forwarded requests. It has no overall timeout:
	// streams are long-lived, and cancellation rides the request context.
	client *http.Client
	// The forwarding bounds start at the constants of the same names;
	// tests shorten them right after NewRouter.
	forwardRetries int
	forwardBackoff time.Duration
	probeTimeout   time.Duration
	downCooldown   time.Duration
}

// NewRouter builds a Router for svc (nil = pure coordinator) over the given
// peer set, which must not be empty: a single node serves Handler(svc)
// without a router.
func NewRouter(svc *Service, opts ShardOptions) (*Router, error) {
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("shard: no peers; a single node serves Handler(svc) without a router")
	}
	if len(opts.MemberIDs) == 0 {
		opts.MemberIDs = opts.Peers
	}
	if len(opts.MemberIDs) != len(opts.Peers) {
		return nil, fmt.Errorf("shard: %d member IDs for %d peers", len(opts.MemberIDs), len(opts.Peers))
	}
	if opts.Self >= len(opts.Peers) {
		return nil, fmt.Errorf("shard: self index %d out of range for %d peers", opts.Self, len(opts.Peers))
	}
	if svc == nil && opts.Self >= 0 {
		return nil, fmt.Errorf("shard: self index %d set but no local service", opts.Self)
	}
	if svc != nil && opts.Self < 0 {
		return nil, fmt.Errorf("shard: local service present but self index unset; use Self: -1 only for pure coordinators")
	}
	rt := &Router{
		svc:       svc,
		opts:      opts,
		ring:      shard.New(opts.MemberIDs, shard.DefaultVirtualNodes),
		addrByID:  make(map[string]string, len(opts.Peers)),
		downUntil: make(map[string]time.Time),

		client:         &http.Client{},
		forwardRetries: forwardRetries,
		forwardBackoff: forwardBackoff,
		probeTimeout:   probeTimeout,
		downCooldown:   downCooldown,
	}
	if svc != nil {
		rt.local = Handler(svc)
	} else {
		rt.logs = newLogMemo(wireMemoCapacity)
	}
	for i, id := range opts.MemberIDs {
		rt.addrByID[id] = strings.TrimSuffix(opts.Peers[i], "/")
	}
	if opts.Self >= 0 {
		rt.selfID = opts.MemberIDs[opts.Self]
	}
	return rt, nil
}

// Ring exposes the router's placement ring (read-only) for stats and tests.
func (rt *Router) Ring() *shard.Ring { return rt.ring }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// An already-forwarded request is served locally no matter what this
	// router thinks the placement is: the sender owns the routing decision,
	// and honouring it unconditionally makes forwarding loop-free.
	if r.Header.Get(ForwardHeader) != "" {
		rt.serveLocal(w, r)
		return
	}
	path := r.URL.Path
	switch {
	case path == "/healthz":
		// Liveness is always local: it answers for this process only.
		if rt.local != nil {
			rt.local.ServeHTTP(w, r)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "coordinator"})
	case path == "/readyz":
		if rt.local != nil {
			rt.local.ServeHTTP(w, r)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready", "role": "coordinator"})
	case path == "/stats":
		rt.handleClusterStats(w, r)
	case path == "/abstract" || path == "/pipeline":
		rt.routeByLog(w, r)
	case path == "/stream" && r.Method == http.MethodPost:
		rt.routeStreamPost(w, r)
	case strings.HasPrefix(path, "/stream/"):
		name := strings.TrimPrefix(path, "/stream/")
		name = strings.TrimSuffix(name, "/close")
		rt.route(w, r, shard.Hash("stream:"+name), nil)
	case strings.HasPrefix(path, "/jobs/"):
		rt.routeJob(w, r)
	default:
		rt.serveLocal(w, r)
	}
}

// routeByLog keys /abstract and /pipeline by the uploaded log's content: the
// same text every per-log artifact (session, index, memo, result cache
// entry) is digested by, so the owner of the key owns the artifacts. The
// body must be read and its log decoded up front to extract the key; the
// local handler gets the same buffer and the decoded log (withBody), and a
// forwarded request replays the body. The key is the SHA-256 of the log
// text, so a JSON envelope and the raw body of the same log land on the
// same shard; the upload path computes the same hash for the wire memo.
// A router that serves the key locally decodes through its service's log
// memo and counts in its service's uploads.decoded.
func (rt *Router) routeByLog(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	up := &routedBody{body: body}
	if isEnvelope(r) {
		var env struct {
			Log string `json:"log"`
		}
		if rt.svc != nil {
			up.text, up.rest, err = rt.svc.decodeEnvelope(body, &env, &env.Log)
		} else {
			up.text, up.rest, err = decodeEnvelope(body, &env, &env.Log, rt.logs)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	} else {
		up.text = plainText(body)
	}
	rt.route(w, withBody(r, up), shard.HashSum(up.text.digest()), body)
}

// routeJob routes job polls and cancels by the shard prefix baked into the
// job ID ("s3-job-17" was minted by shard index 3), so cross-shard polling
// needs no lookup table. IDs without a recognised prefix are local.
func (rt *Router) routeJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id = strings.TrimSuffix(id, "/cancel")
	if rest, ok := strings.CutPrefix(id, "s"); ok {
		if num, _, ok := strings.Cut(rest, "-"); ok {
			if i, err := strconv.Atoi(num); err == nil && i >= 0 && i < len(rt.opts.MemberIDs) {
				rt.routeToMember(w, r, rt.opts.MemberIDs[i])
				return
			}
		}
	}
	rt.serveLocal(w, r)
}

// routeStreamPost keys named streams by "stream:<name>" so a stream's window
// state always lives on one shard across requests. Anonymous streams have no
// cross-request state; they are served locally, or — on a pure coordinator —
// sent to the fixed owner of the anonymous key so placement stays
// deterministic.
func (rt *Router) routeStreamPost(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("stream")
	if name == "" && rt.svc != nil {
		rt.serveLocal(w, r)
		return
	}
	for _, member := range rt.candidates(shard.Hash("stream:" + name)) {
		if member == rt.selfID && rt.svc != nil {
			rt.serveLocal(w, r)
			return
		}
		// The NDJSON body streams and cannot be replayed after a failed
		// attempt, so readiness is probed first (probes are idempotent and
		// retry freely); the proxy itself is single-shot.
		if !rt.probeReady(r, member) {
			rt.markDown(member)
			continue
		}
		rt.proxyStream(w, r, member)
		return
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("no reachable shard for stream %q", name))
}

// route serves the owner of the key at ring position h: locally when this
// node owns it, else by forwarding down the key's preference order. body
// replaces the consumed request body in a forward (nil when it was not
// read).
func (rt *Router) route(w http.ResponseWriter, r *http.Request, h uint64, body []byte) {
	for _, member := range rt.candidates(h) {
		if member == rt.selfID && rt.svc != nil {
			rt.serveLocal(w, r)
			return
		}
		if rt.forward(w, r, member, body) {
			return
		}
		rt.markDown(member)
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("no reachable shard owns this request"))
}

// routeToMember is route for a pre-resolved member (job IDs name their
// shard directly); an unreachable member falls back to local, where the
// poll yields a definitive 404 rather than a gateway error.
func (rt *Router) routeToMember(w http.ResponseWriter, r *http.Request, member string) {
	if member == rt.selfID && rt.svc != nil {
		rt.serveLocal(w, r)
		return
	}
	if rt.forward(w, r, member, nil) {
		return
	}
	rt.markDown(member)
	if rt.svc != nil {
		rt.serveLocal(w, r)
		return
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("shard %s unreachable", member))
}

// candidates returns the preference order of the key at ring position h
// with benched peers moved to the back: the healthy successor is tried
// first, exactly as if the ring had healed without the down members, but a
// fully-benched ring still tries everyone rather than failing outright.
func (rt *Router) candidates(h uint64) []string {
	seq := rt.ring.SequenceHash(h)
	now := time.Now()
	up := make([]string, 0, len(seq))
	var benched []string
	rt.downMu.Lock()
	for _, m := range seq {
		if until, ok := rt.downUntil[m]; ok && now.Before(until) {
			benched = append(benched, m)
			continue
		}
		up = append(up, m)
	}
	rt.downMu.Unlock()
	return append(up, benched...)
}

func (rt *Router) markDown(member string) {
	if member == rt.selfID {
		return
	}
	rt.downMu.Lock()
	rt.downUntil[member] = time.Now().Add(rt.downCooldown)
	rt.downMu.Unlock()
}

// serveLocal dispatches to the wrapped service's own mux.
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request) {
	if rt.local == nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("coordinator has no local service for %s", r.URL.Path))
		return
	}
	rt.local.ServeHTTP(w, r)
}

// forward relays a buffered request to member, retrying transport failures
// with doubling backoff. Any HTTP response — including 4xx/5xx — is relayed
// verbatim and counts as success: the owner answered; its answer stands.
// Returns false only when the peer never answered.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, member string, body []byte) bool {
	addr, ok := rt.addrByID[member]
	if !ok {
		return false
	}
	backoff := rt.forwardBackoff
	for attempt := 0; attempt < rt.forwardRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-r.Context().Done():
				return false
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, addr+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return true
		}
		req.Header = r.Header.Clone()
		req.Header.Set(ForwardHeader, rt.forwarderID())
		resp, err := rt.client.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				// The client went away; nothing to relay and no reason to
				// blame the peer.
				return true
			}
			continue
		}
		relayResponse(w, resp, false)
		return true
	}
	return false
}

// probeReady reports whether member answers GET /readyz with 200, retrying
// transport errors. A 503 (draining) is a definitive "route past me".
func (rt *Router) probeReady(r *http.Request, member string) bool {
	addr, ok := rt.addrByID[member]
	if !ok {
		return false
	}
	backoff := rt.forwardBackoff
	for attempt := 0; attempt < rt.forwardRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-r.Context().Done():
				return false
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		ctx, cancel := context.WithTimeout(r.Context(), rt.probeTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/readyz", nil)
		if err != nil {
			cancel()
			return false
		}
		req.Header.Set(ForwardHeader, rt.forwarderID())
		resp, err := rt.client.Do(req)
		cancel()
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	return false
}

// proxyStream relays a full-duplex NDJSON stream: the client's request body
// streams through to the owner while the owner's response lines stream back,
// flushed per chunk so drift alerts arrive as they happen, not when a buffer
// fills.
func (rt *Router) proxyStream(w http.ResponseWriter, r *http.Request, member string) {
	addr := rt.addrByID[member]
	req, err := http.NewRequestWithContext(r.Context(), r.Method, addr+r.URL.RequestURI(), r.Body)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header = r.Header.Clone()
	req.Header.Set(ForwardHeader, rt.forwarderID())
	// Force chunked upload: the proxy must not buffer the request body
	// waiting for a length it will never learn.
	req.ContentLength = -1
	resp, err := rt.client.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("proxying stream to %s: %v", member, err))
		return
	}
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	relayResponse(w, resp, true)
}

// relayResponse copies a forwarded response to the client; flush streams
// each read chunk immediately (NDJSON proxying).
func relayResponse(w http.ResponseWriter, resp *http.Response, flush bool) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		// Headers are copied wholesale; iteration order does not reach the
		// wire in any observable way beyond HTTP's own unordered semantics.
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if !flush {
		io.Copy(w, resp.Body)
		return
	}
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// handleClusterStats fans /stats out to every ring member and merges the
// answers into cluster totals plus a per-shard breakdown. ?scope=local (or
// an already-forwarded request, handled in ServeHTTP) returns just this
// shard's counters — which is also what the fan-out asks peers for.
func (rt *Router) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("scope") == "local" {
		rt.serveLocal(w, r)
		return
	}
	out := ClusterStats{Shards: make(map[string]Stats, rt.ring.Len())}
	type answer struct {
		member string
		stats  Stats
		err    error
	}
	members := rt.ring.Members()
	answers := make([]answer, len(members))
	var wg sync.WaitGroup
	for i, member := range members {
		if member == rt.selfID && rt.svc != nil {
			answers[i] = answer{member: member, stats: rt.svc.Stats()}
			continue
		}
		wg.Add(1)
		go func(i int, member string) {
			defer wg.Done()
			st, err := rt.fetchStats(r, member)
			answers[i] = answer{member: member, stats: st, err: err}
		}(i, member)
	}
	wg.Wait()
	// Merge in canonical member order; MergeStats is commutative and
	// associative (pinned by test), so the order is cosmetic anyway.
	for _, a := range answers {
		if a.err != nil {
			out.Unreachable = append(out.Unreachable, a.member)
			continue
		}
		out.Stats = MergeStats(out.Stats, a.stats)
		out.Shards[a.member] = a.stats
	}
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) fetchStats(r *http.Request, member string) (Stats, error) {
	addr, ok := rt.addrByID[member]
	if !ok {
		return Stats{}, fmt.Errorf("unknown member %s", member)
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/stats?scope=local", nil)
	if err != nil {
		return Stats{}, err
	}
	req.Header.Set(ForwardHeader, rt.forwarderID())
	resp, err := rt.client.Do(req)
	if err != nil {
		return Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Stats{}, fmt.Errorf("shard %s: /stats returned %d", member, resp.StatusCode)
	}
	body, err := readCapped(resp.Body, resp.ContentLength, maxStatsBytes)
	if err != nil {
		return Stats{}, fmt.Errorf("shard %s: /stats: %w", member, err)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return Stats{}, fmt.Errorf("shard %s: decoding stats: %w", member, err)
	}
	return st, nil
}

// forwarderID identifies this router on the forward header (useful in peer
// logs; any non-empty value short-circuits re-routing).
func (rt *Router) forwarderID() string {
	if rt.selfID != "" {
		return rt.selfID
	}
	return "coordinator"
}
