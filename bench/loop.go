package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gecco/internal/service"
)

// clients is the closed loop's client count. The benchmark targets a
// two-core machine, where two callers that each wait for their reply keep
// the server busy without building a queue (service.Options' default admits
// one job per CPU).
const clients = 2

// phase is what one closed-loop phase measured.
type phase struct {
	latMs  []float64 // successful ops, sorted
	ops    int       // ops run
	next   int       // one past the highest op number run
	failed int
	errs   []string // the first few failures
	wall   time.Duration
}

// drive runs ops numbered first, first+1, ... on n goroutines. Each worker
// claims the next number and runs it while more accepts that number (the
// count of ops claimed before it) and the phase's elapsed time. op returns
// the op's latency; an error counts it as failed.
func drive(n, first int, more func(started int, elapsed time.Duration) bool, op func(worker, seq int) (time.Duration, error)) phase {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		p     phase
		wg    sync.WaitGroup
		start = time.Now()
	)
	p.next = first
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if !more(k, time.Since(start)) {
					return
				}
				seq := first + k
				lat, err := op(w, seq)
				mu.Lock()
				p.ops++
				p.next = max(p.next, seq+1)
				if err != nil {
					p.failed++
					if len(p.errs) < 5 {
						p.errs = append(p.errs, fmt.Sprintf("op %d: %v", seq, err))
					}
				} else {
					p.latMs = append(p.latMs, float64(lat)/float64(time.Millisecond))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	p.wall = time.Since(start)
	sort.Float64s(p.latMs)
	return p
}

// upTo is a warm-up stop rule: exactly count ops.
func upTo(count int) func(int, time.Duration) bool {
	return func(started int, _ time.Duration) bool { return started < count }
}

// forAtLeast is the measured phase's stop rule: run for d and at least
// minOps ops, but never past limit.
func forAtLeast(d time.Duration, minOps int, limit time.Duration) func(int, time.Duration) bool {
	return func(started int, elapsed time.Duration) bool {
		return elapsed < limit && (elapsed < d || started < minOps)
	}
}

// server is one loopback HTTP listener serving a handler.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// target is the system under test: gecco-serve's handlers in this process,
// either one service or the `gecco-serve -shards 2` topology (two shard
// services behind a pure-coordinator Router).
type target struct {
	svcs    []*service.Service
	members []string
	servers []*server
	url     string
	client  *http.Client
	// rec, when it holds a recorder, makes every mounted handler record a
	// span per request.
	rec atomic.Pointer[recorder]
}

// newTarget starts the servers. With traced set every handler is wrapped in
// the timing middleware; spans are recorded only while rec is set.
func newTarget(shards int, traced bool) (*target, error) {
	t := &target{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}}
	wrap := func(h http.Handler, name, member string) http.Handler {
		if !traced {
			return h
		}
		return middleware(h, name, member, &t.rec)
	}
	if shards == 0 {
		svc := service.New(service.Options{})
		s, err := serve(wrap(service.Handler(svc), "service.handler", ""))
		if err != nil {
			svc.Close()
			return nil, err
		}
		t.svcs, t.servers, t.url = []*service.Service{svc}, []*server{s}, s.url
		return t, nil
	}
	var peers []string
	for i := 0; i < shards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		svc := service.New(service.Options{JobIDPrefix: fmt.Sprintf("s%d-", i)})
		t.svcs = append(t.svcs, svc)
		s, err := serve(wrap(service.Handler(svc), "service.handler", id))
		if err != nil {
			t.close()
			return nil, err
		}
		t.servers = append(t.servers, s)
		t.members = append(t.members, id)
		peers = append(peers, s.url)
	}
	coord, err := service.NewRouter(nil, service.ShardOptions{Peers: peers, MemberIDs: t.members, Self: -1})
	if err != nil {
		t.close()
		return nil, err
	}
	s, err := serve(wrap(coord, "router.serve", ""))
	if err != nil {
		t.close()
		return nil, err
	}
	t.servers = append(t.servers, s)
	t.url = s.url
	return t, nil
}

func (t *target) close() {
	t.client.CloseIdleConnections()
	for _, s := range t.servers {
		s.close()
	}
	for _, svc := range t.svcs {
		svc.Close()
	}
}

// stats merges the counters of every service.
func (t *target) stats() service.Stats {
	var st service.Stats
	for _, svc := range t.svcs {
		st = service.MergeStats(st, svc.Stats())
	}
	return st
}

// job looks a job ID up on whichever service minted it.
func (t *target) job(id string) (service.JobSnapshot, error) {
	var err error
	for _, svc := range t.svcs {
		var snap service.JobSnapshot
		if snap, err = svc.Job(id); err == nil {
			return snap, nil
		}
	}
	return service.JobSnapshot{}, err
}

// streamConn is one full-duplex POST /stream exchange on a plain TCP
// connection. Each arrival goes out as one HTTP chunk written straight to
// the socket, and its reply is read back on the same goroutine. net/http's
// client, fed through an io.Pipe, hands every write to its transport's
// writer goroutine: in 10 paired runs it raised stream-ingest's p50 by 36%
// (0.037 to 0.051 ms, all 10 pairs slower) and p90 by 19%, client cost that
// would dilute the server's share of the metric (bench/README.md).
type streamConn struct {
	conn net.Conn
	in   *bufio.Reader // the response body, de-chunked
	buf  []byte
}

func dialStream(base, pathQuery string) (*streamConn, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n", pathQuery, u.Host); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := http.ReadResponse(bufio.NewReaderSize(conn, 64<<10), nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("reading the response header: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		conn.Close()
		return nil, fmt.Errorf("POST /stream returned %d", resp.StatusCode)
	}
	return &streamConn{conn: conn, in: bufio.NewReaderSize(resp.Body, 64<<10)}, nil
}

// send writes line as one chunk and returns the next response line.
func (s *streamConn) send(line []byte) ([]byte, error) {
	s.buf = strconv.AppendInt(s.buf[:0], int64(len(line)), 16)
	s.buf = append(append(append(s.buf, "\r\n"...), line...), "\r\n"...)
	if _, err := s.conn.Write(s.buf); err != nil {
		return nil, fmt.Errorf("writing arrival: %w", err)
	}
	out, err := s.in.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("reading abstraction: %w", err)
	}
	return out, nil
}

// close ends the request body, drains the response and closes the socket.
func (s *streamConn) close() {
	s.conn.Write([]byte("0\r\n\r\n"))
	io.Copy(io.Discard, s.in)
	s.conn.Close()
}

// request is one generated HTTP request.
type request struct {
	path        string // with query
	contentType string
	body        []byte
}

// do sends req and reads the whole response into buf. The latency runs from
// start, just before Client.Do, to the last byte of the body.
func (t *target) do(req request, id string, buf *bytes.Buffer) (status int, start time.Time, lat time.Duration, err error) {
	hr, err := http.NewRequest(http.MethodPost, t.url+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, start, 0, err
	}
	hr.Header.Set("Content-Type", req.contentType)
	if id != "" {
		hr.Header.Set(reqHeader, id)
	}
	buf.Reset()
	start = time.Now()
	resp, err := t.client.Do(hr)
	if err != nil {
		return 0, start, 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, start, 0, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, start, lat, nil
}
