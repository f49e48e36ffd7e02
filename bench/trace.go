package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the benchmark's request ID on traced requests. The
// coordinator Router clones request headers onto forwarded requests, so the
// ID follows a request from the client through the router to the shard.
const reqHeader = "X-Bench-Request"

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the ID of the enclosing span (0 for a root). OffPath marks
// a layer measured directly although the service skipped it on this
// workload (its cache counters say so), so it is left out of the sum that
// must reproduce the handler time.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Req     string  `json:"req,omitempty"`
	Member  string  `json:"member,omitempty"`
	StartMs float64 `json:"startMs"`
	EndMs   float64 `json:"endMs"`
	OffPath bool    `json:"offPath,omitempty"`
}

func (s span) ms() float64 { return s.EndMs - s.StartMs }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return float64(t.Sub(r.t0)) / float64(time.Millisecond) }

// add records a finished span.
func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
}

// timed runs fn inside span s and returns s finished. fn receives the
// span's ID so it can open children.
func (r *recorder) timed(s span, fn func(id int) error) (span, error) {
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	start := time.Now()
	err := fn(s.ID)
	end := time.Now()
	s.StartMs, s.EndMs = r.at(start), r.at(end)
	r.mu.Lock()
	r.spans[s.ID-1] = s
	r.mu.Unlock()
	return s, err
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// middleware times every request through next while a recorder is
// installed in rec; with none installed it only forwards. name is the
// layer ("service.handler" or "router.serve"), member the shard it serves.
func middleware(next http.Handler, name, member string, rec *atomic.Pointer[recorder]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := rec.Load()
		if rc == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		rc.add(span{Name: name, Member: member, Req: r.Header.Get(reqHeader), StartMs: rc.at(start), EndMs: rc.at(end)})
	})
}

// linkRequests parents the HTTP spans of each request: the server span that
// began first (the router, when there is one) under the client span, and
// each later server span under the one before it.
func linkRequests(spans []span) {
	byReq := map[string][]int{}
	for i, s := range spans {
		if s.Req != "" && s.Parent == 0 {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for _, idx := range byReq {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].StartMs < spans[idx[b]].StartMs })
		for k := 1; k < len(idx); k++ {
			spans[idx[k]].Parent = spans[idx[k-1]].ID
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children, indexed like spans.
func selfTimes(spans []span) []float64 {
	pos := make(map[int]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	children := make([][][2]float64, len(spans))
	for _, s := range spans {
		if p, ok := pos[s.Parent]; ok {
			children[p] = append(children[p], [2]float64{s.StartMs, s.EndMs})
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.ms() - covered(children[i], s.StartMs, s.EndMs)
	}
	return self
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, cur := 0.0, lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans writes the spans to dir/<workload>.trace.json.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
