package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/service"
	"gecco/internal/xes"
)

const (
	// sampleEvery: every warm-up response and every sampleEvery-th measured
	// response is checked against the library oracle.
	sampleEvery = 20
	// replayOps is the traced replay's sample: the first replayOps checked
	// measured ops.
	replayOps = 20
)

// instance is one started workload: its target, its op, and the checks that
// run after the timed phase.
type instance struct {
	t           *target
	concurrency int
	// input returns the bytes op seq sends: what the server receives.
	input func(seq int) ([]byte, error)
	op    func(worker, seq int) (time.Duration, error)
	// shape checks the counters that define the workload over the measured
	// phase, which ran ops ops.
	shape func(c counters, ops int) error
	// finish checks the sampled responses of ops 0..n-1 against the library
	// oracle, returning how many it checked and one message per mismatch.
	// Given a replay it also replays a sample of the inputs.
	finish func(n int, r *replay) (checked int, bad []string, err error)
	obs    *observations
	close  func()
}

// observations are what the client saw per op during the traced phase.
type observations struct {
	mu             sync.Mutex
	respKB         []float64
	queueMs, runMs []float64
}

func (o *observations) add(dst *[]float64, v float64) {
	o.mu.Lock()
	*dst = append(*dst, v)
	o.mu.Unlock()
}

// sampled reports whether op seq is checked against the oracle.
func sampled(seq, warmup int) bool {
	return seq < warmup || (seq-warmup)%sampleEvery == 0
}

// counters are the service counters that define a workload, as deltas over
// a phase.
type counters struct {
	resultHits, resultMisses   int64
	sessionHits, sessionMisses int64
	stages                     map[string]service.StageCounters
	arrivals, regroups         int64
}

func countersBetween(a, b service.Stats) counters {
	c := counters{
		resultHits:    b.Cache.Hits - a.Cache.Hits,
		resultMisses:  b.Cache.Misses - a.Cache.Misses,
		sessionHits:   b.Sessions.Hits - a.Sessions.Hits,
		sessionMisses: b.Sessions.Misses - a.Sessions.Misses,
		stages:        map[string]service.StageCounters{},
		arrivals:      b.Streams.Traces - a.Streams.Traces,
		regroups:      b.Streams.Regroupings - a.Streams.Regroupings,
	}
	for name, s := range b.Pipeline.Stages {
		c.stages[name] = service.StageCounters{
			Hits:   s.Hits - a.Pipeline.Stages[name].Hits,
			Misses: s.Misses - a.Pipeline.Stages[name].Misses,
		}
	}
	return c
}

// httpSpec describes an HTTP workload's inputs and checks.
type httpSpec struct {
	shards  int // 0 = one service; n = n shards behind a coordinator
	warmup  int
	request func(seq int) (request, error)
	// digest normalises a response body for comparison with expect.
	digest func(body []byte) (digest, error)
	expect func(seq int) (digest, error)
	shape  func(c counters, ops int) error
	// replay replays op seq's input through the library under root.
	replay func(r *replay, root, seq int) error
}

// startHTTP starts the target and builds the instance that drives spec.
func startHTTP(spec httpSpec, traced bool) (*instance, error) {
	t, err := newTarget(spec.shards, traced)
	if err != nil {
		return nil, err
	}
	var (
		mu   sync.Mutex
		got  = map[int]digest{}
		bufs = make([]*bytes.Buffer, clients)
		obs  = &observations{}
	)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
	}
	op := func(w, seq int) (time.Duration, error) {
		req, err := spec.request(seq)
		if err != nil {
			return 0, err
		}
		rec := t.rec.Load()
		id := ""
		if rec != nil {
			id = strconv.Itoa(seq)
		}
		buf := bufs[w]
		status, start, lat, err := t.do(req, id, buf)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("status %d: %.200s", status, buf.Bytes())
		}
		if rec != nil {
			rec.add(span{Name: "http.client", Req: id, StartMs: rec.at(start), EndMs: rec.at(start.Add(lat))})
			obs.add(&obs.respKB, float64(buf.Len())/1024)
			if jobID := leadingJobID(buf.Bytes()); jobID != "" {
				snap, err := t.job(jobID)
				if err != nil {
					return 0, err
				}
				obs.add(&obs.queueMs, msOf(snap.Started.Sub(snap.Created)))
				obs.add(&obs.runMs, msOf(snap.Ended.Sub(snap.Started)))
			}
		}
		if sampled(seq, spec.warmup) {
			d, err := spec.digest(buf.Bytes())
			if err != nil {
				return 0, err
			}
			mu.Lock()
			got[seq] = d
			mu.Unlock()
		}
		return lat, nil
	}
	// finish runs after every op has returned, so it reads got unlocked.
	// Failed ops left no digest; they are counted already.
	finish := func(_ int, r *replay) (int, []string, error) {
		checked := 0
		var bad []string
		var replayed []int
		for _, seq := range sortedKeys(got) {
			d := got[seq]
			want, err := spec.expect(seq)
			if err != nil {
				return checked, bad, fmt.Errorf("oracle for op %d: %w", seq, err)
			}
			checked++
			if d != want {
				bad = append(bad, fmt.Sprintf("op %d: response differs from the library oracle", seq))
			}
			if seq >= spec.warmup && len(replayed) < replayOps {
				replayed = append(replayed, seq)
			}
		}
		if r == nil {
			return checked, bad, nil
		}
		for _, seq := range replayed {
			seq := seq
			if err := r.op(seq, func(root int) error { return spec.replay(r, root, seq) }); err != nil {
				return checked, bad, fmt.Errorf("replaying op %d: %w", seq, err)
			}
		}
		return checked, bad, nil
	}
	input := func(seq int) ([]byte, error) {
		req, err := spec.request(seq)
		return append([]byte(req.path+"\n"+req.contentType+"\n"), req.body...), err
	}
	return &instance{t: t, concurrency: clients, input: input, op: op, shape: spec.shape, finish: finish, obs: obs, close: t.close}, nil
}

// leadingJobID extracts the jobId field that leads a JSON /abstract
// response, without decoding the (possibly megabytes long) rest of it.
func leadingJobID(body []byte) string {
	const prefix = `{"jobId":"`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return ""
	}
	rest := body[len(prefix):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return ""
	}
	return string(rest[:end])
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// logSession builds a core.Session over an XES text on first use; the
// oracles and replays solve on it the way the service solves on its live
// session for the log.
type logSession struct {
	text string
	sess *core.Session
}

func (l *logSession) get() (*core.Session, error) {
	if l.sess == nil {
		log, err := xes.Read(strings.NewReader(l.text))
		if err != nil {
			return nil, err
		}
		if l.sess, err = core.NewSession(log); err != nil {
			return nil, err
		}
	}
	return l.sess, nil
}

func (l *logSession) solve(setText string, cfg core.Config) (*core.Result, error) {
	sess, err := l.get()
	if err != nil {
		return nil, err
	}
	set, err := constraints.ParseSet(setText)
	if err != nil {
		return nil, err
	}
	return sess.Solve(context.Background(), set, cfg)
}

func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// envelope is a JSON request whose log field is the pre-encoded logJSON, so
// every request carries byte-identical log text without re-encoding it.
func envelope(fields map[string]any, logJSON []byte) ([]byte, error) {
	head, err := json.Marshal(fields)
	if err != nil {
		return nil, err
	}
	body := make([]byte, 0, len(head)+len(logJSON)+8)
	body = append(body, head[:len(head)-1]...)
	body = append(body, `,"log":`...)
	body = append(body, logJSON...)
	return append(body, '}'), nil
}

func writeXES(log *eventlog.Log) (string, error) {
	var b strings.Builder
	err := xes.Write(&b, log)
	return b.String(), err
}
