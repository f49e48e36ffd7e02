package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"time"

	"gecco/internal/conformance"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/discovery"
	"gecco/internal/eventlog"
	"gecco/internal/logfilter"
	"gecco/internal/pipeline"
	"gecco/internal/procgen"
	"gecco/internal/service"
	"gecco/internal/stream"
	"gecco/internal/xes"
)

// workload is one closed-loop traffic mix against gecco-serve's handlers.
type workload struct {
	name   string
	warmup int // untimed ops before the measured phase
	// start generates the inputs and starts the servers.
	start func(o startOpts) (*instance, error)
}

// startOpts are what an instance is started with.
type startOpts struct {
	seed   int64 // every generated input derives from it
	warmup int   // ops numbered below it are the warm-up
	// traced wraps every mounted handler in the timing middleware.
	traced bool
}

// workloads are the benchmark's traffic mixes, in report order.
// BENCHMARK.json and bench/README.md say why each one is there.
var workloads = []workload{
	{"upload-cold", 50, startUploadCold},
	{"refine-warm", 300, startRefineWarm},
	{"repeat-hot", 32, startRepeatHot},
	{"pipeline-tail", 20, startPipelineTail},
	{"stream-ingest", 2000, startStreamIngest},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// abstractSet is the constraint set of upload-cold and pipeline-tail: one
// source system per activity (the §VI-D case study's BL3) with groups of at
// most 8 classes.
const abstractSet = "distinct(class.org) <= 1\n|g| <= 8"

// How many seeded logs upload-cold, refine-warm, repeat-hot and
// pipeline-tail cycle through: several, so that a run averages over inputs
// instead of measuring whichever one log its seed drew.
const (
	uploadLogs   = 8
	refineLogs   = 4
	repeatLogs   = 8
	pipelineLogs = 4
)

// dfg is the candidate mode every /abstract workload requests.
var dfg = core.Config{Mode: core.DFGUnbounded}

// loanXES simulates an n-trace loan-application log and serialises it.
func loanXES(n int, simSeed int64) (string, error) {
	text, err := writeXES(procgen.LoanLog(n, simSeed))
	if err != nil {
		return "", fmt.Errorf("serialising loan log: %w", err)
	}
	return text, nil
}

// startUploadCold: raw XES uploads of 50-trace loan logs whose first trace
// ID is salted per request, so no upload repeats.
func startUploadCold(o startOpts) (*instance, error) {
	rng := rand.New(rand.NewSource(o.seed))
	salt := strconv.FormatUint(uint64(rng.Uint32()), 16)
	const firstID = `value="case-0`
	pre, post := make([]string, uploadLogs), make([]string, uploadLogs)
	for i := range pre {
		text, err := loanXES(50, rng.Int63())
		if err != nil {
			return nil, err
		}
		k := strings.Index(text, firstID) + len(firstID)
		if k < len(firstID) {
			return nil, errors.New("upload-cold: no first trace ID to salt")
		}
		pre[i], post[i] = text[:k], text[k:]
	}
	body := func(seq int) string {
		i := seq % uploadLogs
		return pre[i] + "." + salt + "." + strconv.Itoa(seq) + post[i]
	}
	path := "/abstract?" + url.Values{"mode": {"dfg"}, "constraints": {abstractSet}}.Encode()
	set, err := constraints.ParseSet(abstractSet)
	if err != nil {
		return nil, err
	}
	return startHTTP(httpSpec{
		warmup: o.warmup,
		request: func(seq int) (request, error) {
			return request{path: path, contentType: "application/xml", body: []byte(body(seq))}, nil
		},
		digest: abstractDigest,
		expect: func(seq int) (digest, error) {
			log, err := xes.Read(strings.NewReader(body(seq)))
			if err != nil {
				return digest{}, err
			}
			sess, err := core.NewSession(log)
			if err != nil {
				return digest{}, err
			}
			res, err := sess.Solve(context.Background(), set, dfg)
			if err != nil {
				return digest{}, err
			}
			return expectedAbstract(res)
		},
		shape: func(c counters, ops int) error {
			if c.resultHits != 0 || c.sessionHits != 0 {
				return fmt.Errorf("upload-cold assumes no upload repeats, but the measured phase had %d result-cache hits and %d session hits", c.resultHits, c.sessionHits)
			}
			return nil
		},
		replay: func(r *replay, root, seq int) error {
			log, err := replayParse(r, root, body(seq))
			if err != nil {
				return err
			}
			var sess *core.Session
			if err := r.layer(root, "core.session_build", func(id int) error {
				x := replayIndex(r, id, log)
				var err error
				sess, err = core.NewSessionFromIndex(x)
				return err
			}); err != nil {
				return err
			}
			res, err := r.solve(root, sess, set, dfg)
			if err != nil {
				return err
			}
			return replayRespond(r, root, res)
		},
	}, o.traced)
}

// replayParse replays what the service does with an uploaded XES text
// before it can look anything up: parse it and digest the parsed log.
func replayParse(r *replay, root int, text string) (*eventlog.Log, error) {
	var log *eventlog.Log
	if err := r.layer(root, "xes.read", func(int) error {
		start := time.Now()
		var err error
		log, err = xes.Read(strings.NewReader(text))
		r.add("xes.read_mb_per_s", float64(len(text))/1e6/time.Since(start).Seconds())
		return err
	}); err != nil {
		return nil, err
	}
	r.layer(root, "service.log_digest", func(int) error {
		service.LogDigest(log)
		return nil
	})
	return log, nil
}

// replayIndex replays the columnar index build of a parsed log.
func replayIndex(r *replay, parent int, log *eventlog.Log) *eventlog.Index {
	var x *eventlog.Index
	r.layer(parent, "eventlog.index_build", func(int) error {
		x = eventlog.NewIndex(log)
		return nil
	})
	r.add("eventlog.bytes_per_event", float64(x.EstimatedBytes())/float64(x.NumEvents()))
	return x
}

// replayRespond replays the /abstract response: serialise the abstracted
// log, then encode the JSON response.
func replayRespond(r *replay, root int, res *core.Result) error {
	var text string
	if err := r.layer(root, "xes.write", func(int) (err error) {
		text, err = writeXES(res.Abstracted)
		return err
	}); err != nil {
		return err
	}
	return r.layer(root, "service.encode", func(int) error {
		_, err := json.Marshal(abstractResponse(res, text))
		return err
	})
}

// replayDecode replays the service's JSON envelope decode into v.
func replayDecode(r *replay, root int, body []byte, v any) error {
	return r.layer(root, "service.decode", func(int) error { return json.Unmarshal(body, v) })
}

// startRefineWarm: the paper's refinement loop. Each of refineLogs users
// keeps uploading their 200-trace loan log byte-identically, each time with
// a new constraint set; requests take the users in turn. The non-binding
// max(cost) padding makes every cache key new; k cycles the group-size
// bound through 6..9.
func startRefineWarm(o startOpts) (*instance, error) {
	rng := rand.New(rand.NewSource(o.seed))
	// One library session per log serves the oracle and the replay, warm
	// like the service's live sessions.
	sessions := make([]*logSession, refineLogs)
	logJSON := make([][]byte, refineLogs)
	for i := range sessions {
		text, err := loanXES(200, rng.Int63())
		if err != nil {
			return nil, err
		}
		sessions[i] = &logSession{text: text}
		logJSON[i] = jsonString(text)
	}
	kOff, padBase := rng.Intn(4), 1000000+rng.Intn(1000)
	k := func(seq int) int { return 6 + (seq/refineLogs+kOff)%4 }
	template := func(seq int) string {
		return fmt.Sprintf("distinct(class.org) <= 1\n|g| <= %d", k(seq))
	}
	setText := func(seq int) string {
		return fmt.Sprintf("%s\nmax(cost) <= %d.%06d", template(seq), padBase, seq)
	}
	body := func(seq int) ([]byte, error) {
		return envelope(map[string]any{"format": "xes", "mode": "dfg", "constraints": setText(seq)}, logJSON[seq%refineLogs])
	}
	templates := map[[2]int]*core.Result{} // (log, k) -> the unpadded set's result
	return startHTTP(httpSpec{
		warmup: o.warmup,
		request: func(seq int) (request, error) {
			b, err := body(seq)
			return request{path: "/abstract", contentType: "application/json", body: b}, err
		},
		digest: abstractDigest,
		expect: func(seq int) (digest, error) {
			oracle := sessions[seq%refineLogs]
			res, err := oracle.solve(setText(seq), dfg)
			if err != nil {
				return digest{}, err
			}
			// The padding must not bind: the padded set has to group the log
			// exactly as its template does.
			tk := [2]int{seq % refineLogs, k(seq)}
			if templates[tk] == nil {
				if templates[tk], err = oracle.solve(template(seq), dfg); err != nil {
					return digest{}, err
				}
			}
			if t := templates[tk]; t.Distance != res.Distance || !reflect.DeepEqual(t.GroupClasses, res.GroupClasses) {
				return digest{}, fmt.Errorf("the padding of %q changes its grouping", setText(seq))
			}
			return expectedAbstract(res)
		},
		shape: func(c counters, ops int) error {
			if c.resultHits != 0 || c.sessionMisses > 1 {
				return fmt.Errorf("refine-warm assumes new sets on live sessions, but the measured phase had %d result-cache hits and %d session misses", c.resultHits, c.sessionMisses)
			}
			return nil
		},
		replay: func(r *replay, root, seq int) error {
			b, err := body(seq)
			if err != nil {
				return err
			}
			var env service.AbstractRequest
			if err := replayDecode(r, root, b, &env); err != nil {
				return err
			}
			set, err := constraints.ParseSet(env.Constraints)
			if err != nil {
				return err
			}
			sess, err := sessions[seq%refineLogs].get()
			if err != nil {
				return err
			}
			res, err := r.solve(root, sess, set, dfg)
			if err != nil {
				return err
			}
			return replayRespond(r, root, res)
		},
	}, o.traced)
}

// repeatSets are repeat-hot's constraint sets: every key is solved once in
// the warm-up and served from the result cache afterwards.
var repeatSets = []string{
	"distinct(class.org) <= 1\n|g| <= 8",
	"distinct(class.org) <= 1\n|g| <= 6",
	"distinct(role) <= 1\n|g| <= 8",
	"distinct(role) <= 1\n|g| <= 5",
}

// startRepeatHot: JSON envelopes for 50-trace loan logs × repeatSets
// through the `gecco-serve -shards 2` topology, in a seeded fixed
// permutation of the keys; the warm-up is one pass over them.
func startRepeatHot(o startOpts) (*instance, error) {
	rng := rand.New(rand.NewSource(o.seed))
	nkeys := repeatLogs * len(repeatSets)
	sessions := make([]*logSession, repeatLogs)
	logJSON := make([][]byte, repeatLogs)
	for i := range sessions {
		text, err := loanXES(50, rng.Int63())
		if err != nil {
			return nil, err
		}
		sessions[i] = &logSession{text: text}
		logJSON[i] = jsonString(text)
	}
	body := func(key int) ([]byte, error) {
		set := repeatSets[key%len(repeatSets)]
		return envelope(map[string]any{"format": "xes", "mode": "dfg", "constraints": set}, logJSON[key/len(repeatSets)])
	}
	perm := rng.Perm(nkeys)
	results := make([]*core.Result, nkeys)
	want := make([]*digest, nkeys)
	result := func(key int) (*core.Result, error) {
		if results[key] == nil {
			res, err := sessions[key/len(repeatSets)].solve(repeatSets[key%len(repeatSets)], dfg)
			if err != nil {
				return nil, err
			}
			results[key] = res
		}
		return results[key], nil
	}
	return startHTTP(httpSpec{
		shards: 2,
		warmup: o.warmup,
		request: func(seq int) (request, error) {
			b, err := body(perm[seq%nkeys])
			return request{path: "/abstract", contentType: "application/json", body: b}, err
		},
		digest: abstractDigest,
		expect: func(seq int) (digest, error) {
			key := perm[seq%nkeys]
			if want[key] == nil {
				res, err := result(key)
				if err != nil {
					return digest{}, err
				}
				d, err := expectedAbstract(res)
				if err != nil {
					return digest{}, err
				}
				want[key] = &d
			}
			return *want[key], nil
		},
		shape: func(c counters, ops int) error {
			if c.resultMisses != 0 {
				return fmt.Errorf("repeat-hot assumes every measured request hits the result cache, but %d missed", c.resultMisses)
			}
			return nil
		},
		replay: func(r *replay, root, seq int) error {
			key := perm[seq%nkeys]
			b, err := body(key)
			if err != nil {
				return err
			}
			var env service.AbstractRequest
			if err := replayDecode(r, root, b, &env); err != nil {
				return err
			}
			res, err := result(key)
			if err != nil {
				return err
			}
			return replayRespond(r, root, res)
		},
	}, o.traced)
}

// startPipelineTail: /pipeline envelopes through filter → abstract →
// discover → conform, each 50-trace loan log uploaded byte-identically
// every time, where only the discover stage's edge filter changes per
// request: filter and abstract hit the stage cache, discover and conform
// run on every request.
func startPipelineTail(o startOpts) (*instance, error) {
	rng := rand.New(rand.NewSource(o.seed))
	texts := make([]string, pipelineLogs)
	logJSON := make([][]byte, pipelineLogs)
	for i := range texts {
		var err error
		if texts[i], err = loanXES(50, rng.Int63()); err != nil {
			return nil, err
		}
		logJSON[i] = jsonString(texts[i])
	}
	edgeBase := 0.7 + float64(rng.Intn(100))/1000
	specs := func(seq int) []pipeline.StageSpec {
		return []pipeline.StageSpec{
			{Stage: "filter", TopVariants: 0.9},
			{Stage: "abstract", Mode: "dfg"},
			{Stage: "discover", EdgeFilter: edgeBase + float64(seq)*1e-6},
			{Stage: "conform"},
		}
	}
	body := func(seq int) ([]byte, error) {
		return envelope(map[string]any{"format": "xes", "constraints": abstractSet, "stages": specs(seq)}, logJSON[seq%pipelineLogs])
	}
	set, err := constraints.ParseSet(abstractSet)
	if err != nil {
		return nil, err
	}
	// The oracle runs the library pipeline on the same logs; its own map
	// cache computes the shared filter and abstract stages once per log.
	var (
		bases    = make([]*pipeline.State, pipelineLogs)
		baseKeys = make([]string, pipelineLogs)
		cache    = mapStageCache{}
	)
	run := func(seq int) (*pipeline.Result, error) {
		i := seq % pipelineLogs
		if bases[i] == nil {
			log, err := xes.Read(strings.NewReader(texts[i]))
			if err != nil {
				return nil, err
			}
			digest := service.LogDigest(log)
			bases[i] = &pipeline.State{Index: eventlog.NewIndex(log), IndexKey: digest, Constraints: set}
			baseKeys[i] = pipeline.BaseKey(digest, canonicalConstraints(set))
		}
		stages, err := pipeline.BuildStages(specs(seq))
		if err != nil {
			return nil, err
		}
		return pipeline.Run(context.Background(), stages, bases[i], baseKeys[i], &pipeline.Env{Cache: cache})
	}
	return startHTTP(httpSpec{
		warmup: o.warmup,
		request: func(seq int) (request, error) {
			b, err := body(seq)
			return request{path: "/pipeline", contentType: "application/json", body: b}, err
		},
		digest: pipelineDigest,
		expect: func(seq int) (digest, error) {
			out, err := run(seq)
			if err != nil {
				return digest{}, err
			}
			return digestOf(pipelineResponse(out))
		},
		shape: func(c counters, ops int) error {
			for _, st := range []struct {
				name string
				hit  bool
			}{{"filter", true}, {"abstract", true}, {"discover", false}, {"conform", false}} {
				want := service.StageCounters{Hits: int64(ops)}
				if !st.hit {
					want = service.StageCounters{Misses: int64(ops)}
				}
				if got := c.stages[st.name]; got != want {
					return fmt.Errorf("pipeline-tail assumes stage %s %s the cache on every one of %d requests, but it had %d hits and %d misses",
						st.name, verb(st.hit), ops, got.Hits, got.Misses)
				}
			}
			return nil
		},
		replay: func(r *replay, root, seq int) error {
			out, err := run(seq) // the response to encode; untimed
			if err != nil {
				return err
			}
			b, err := body(seq)
			if err != nil {
				return err
			}
			var env service.PipelineHTTPRequest
			if err := replayDecode(r, root, b, &env); err != nil {
				return err
			}
			log, err := replayParse(r, root, env.Log)
			if err != nil {
				return err
			}
			x := replayIndex(r, root, log)
			r.offPath(root, "logfilter", func(int) error {
				_, err := logfilter.TopVariants(context.Background(), x, 0.9)
				return err
			})
			view := out.State.View()
			var model *discovery.Model
			if err := r.layer(root, "discovery", func(int) (err error) {
				model, err = discovery.Discover(context.Background(), view, discovery.Options{EdgeFilter: env.Stages[2].EdgeFilter})
				return err
			}); err != nil {
				return err
			}
			if err := r.layer(root, "conformance", func(int) error {
				_, err := conformance.Evaluate(context.Background(), view, model, conformance.Options{})
				return err
			}); err != nil {
				return err
			}
			return r.layer(root, "service.encode", func(int) error {
				_, err := json.Marshal(pipelineResponse(out))
				return err
			})
		},
	}, o.traced)
}

func verb(hit bool) string {
	if hit {
		return "hits"
	}
	return "misses"
}

// Stream-ingest parameters: a 200-trace window regrouped every 50 arrivals,
// one role per activity instance.
const (
	streamWindow  = 200
	streamRefresh = 50
	streamSet     = "distinct(role) <= 1"
	streamPool    = 4000 // distinct running-example traces the arrivals cycle through
)

// startStreamIngest: one POST /stream connection carrying seeded
// running-example traces, one arrival in flight at a time. Every arrival
// gets a fresh trace ID, so no regroup window repeats.
func startStreamIngest(o startOpts) (*instance, error) {
	rng := rand.New(rand.NewSource(o.seed))
	pool := procgen.RunningExample(streamPool, rng.Int63())
	events := make([][]byte, len(pool.Traces)) // `"events":[...]}` of each pool trace
	for i, tr := range pool.Traces {
		b, err := json.Marshal(service.StreamTrace{Events: streamLineOf(tr, false).Events})
		if err != nil {
			return nil, err
		}
		events[i] = b[1:]
	}
	salt := strconv.FormatUint(uint64(rng.Uint32()), 16)
	id := func(seq int) string { return salt + "-" + strconv.Itoa(seq) }
	line := func(seq int) []byte {
		b := append([]byte(`{"id":"`+id(seq)+`",`), events[seq%len(events)]...)
		return append(b, '\n')
	}

	t, err := newTarget(0, o.traced)
	if err != nil {
		return nil, err
	}
	q := url.Values{"constraints": {streamSet}, "window": {strconv.Itoa(streamWindow)}, "refresh": {strconv.Itoa(streamRefresh)}}
	sc, err := dialStream(t.url, "/stream?"+q.Encode())
	if err != nil {
		t.close()
		return nil, fmt.Errorf("stream-ingest: %w", err)
	}
	closeAll := func() {
		sc.close()
		t.close()
	}
	if _, err := sc.in.ReadBytes('\n'); err != nil { // the ack line
		closeAll()
		return nil, fmt.Errorf("stream-ingest: reading the ack line: %w", err)
	}

	// One client goroutine runs every op, in order, and finish runs after it
	// has stopped, so got and broken need no lock. got holds the digests of
	// the sampled arrivals in arrival order: a slice, so that the client's
	// own memory stays small beside the server state heap_mb measures.
	warmup := o.warmup
	var (
		got    []digest
		broken error
	)
	op := func(_, seq int) (time.Duration, error) {
		if broken != nil {
			return 0, broken
		}
		msg := line(seq)
		start := time.Now()
		out, err := sc.send(msg)
		lat := time.Since(start)
		if err != nil {
			broken = err
			return 0, broken
		}
		if bytes.HasPrefix(out, []byte(`{"error"`)) {
			broken = fmt.Errorf("stream ended with %s", bytes.TrimSpace(out))
			return 0, broken
		}
		if sampled(seq, warmup) {
			d, err := streamLineDigest(out)
			if err != nil {
				broken = err
				return 0, broken
			}
			got = append(got, d)
		}
		return lat, nil
	}
	// finish replays every arrival through a library abstractor configured
	// as the server configures the stream; with a replay it also times each
	// push.
	finish := func(n int, r *replay) (int, []string, error) {
		set, err := constraints.ParseSet(streamSet)
		if err != nil {
			return 0, nil, err
		}
		// The oracle's traces are decoded from the wire form, as the
		// server's are.
		traces := make([]eventlog.Trace, len(events))
		for i, ev := range events {
			var wt service.StreamTrace
			if err := json.Unmarshal(append([]byte("{"), ev...), &wt); err != nil {
				return 0, nil, err
			}
			if traces[i], err = wireTrace(wt); err != nil {
				return 0, nil, err
			}
		}
		abst := stream.New(set, stream.Config{WindowSize: streamWindow, RefreshEvery: streamRefresh, DriftThreshold: stream.DefaultDriftThreshold})
		var (
			out       eventlog.Trace
			regrouped bool
		)
		// push feeds one arrival and records its time under the
		// stream.push or stream.regroup layer, whichever it turned out to be.
		push := func(seq, parent int) error {
			tr := traces[seq%len(traces)]
			tr.ID = id(seq)
			before := abst.Regroupings
			start := time.Now()
			var err error
			if out, err = abst.Push(tr); err != nil {
				return fmt.Errorf("oracle push %d: %w", seq, err)
			}
			end := time.Now()
			regrouped = abst.Regroupings > before
			if r != nil && seq >= warmup {
				name := "stream.push"
				if regrouped {
					name = "stream.regroup"
				}
				r.add(name+"_ms", msOf(end.Sub(start)))
				if parent != 0 {
					r.rec.add(span{Parent: parent, Name: name, StartMs: r.rec.at(start), EndMs: r.rec.at(end)})
				}
			}
			return nil
		}
		checked := 0
		var bad []string
		for seq := 0; seq < n; seq++ {
			var err error
			if r != nil && seq >= warmup && sampled(seq, warmup) {
				err = r.op(seq, func(root int) error {
					var wt service.StreamTrace
					if err := replayDecode(r, root, line(seq), &wt); err != nil {
						return err
					}
					return push(seq, root)
				})
			} else {
				err = push(seq, 0)
			}
			if err != nil {
				return checked, bad, err
			}
			if !sampled(seq, warmup) || checked == len(got) {
				continue
			}
			d := got[checked]
			want, err := digestOf(streamLineOf(out, regrouped))
			if err != nil {
				return checked, bad, err
			}
			checked++
			if d != want {
				bad = append(bad, fmt.Sprintf("arrival %d: abstraction differs from the library oracle", seq))
			}
		}
		return checked, bad, nil
	}
	shape := func(c counters, ops int) error {
		if c.arrivals != int64(ops) {
			return fmt.Errorf("stream-ingest sent %d arrivals but the service counted %d", ops, c.arrivals)
		}
		if c.regroups*streamRefresh < int64(ops-streamRefresh) {
			return fmt.Errorf("stream-ingest assumes a regroup at least every %d arrivals, but %d arrivals triggered %d", streamRefresh, ops, c.regroups)
		}
		return nil
	}
	input := func(seq int) ([]byte, error) { return line(seq), nil }
	return &instance{t: t, concurrency: 1, input: input, op: op, shape: shape, finish: finish, obs: &observations{}, close: closeAll}, nil
}
