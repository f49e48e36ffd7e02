package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// result is one run of one workload: the last line the tool prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add counts run o into r.
func (r *result) add(o result) {
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
}

// report sets r's metrics to the listed ones, valued from got. A metric the
// run measured but the list lacks is an error, and so is a listed
// end-to-end metric it did not measure; a listed per-layer metric it did not
// measure is a layer off the workload's path and reads 0.
func (r *result) report(list []specMetric, got map[string]float64, traced bool) error {
	listed := map[string]bool{}
	for _, m := range list {
		listed[m.Name] = true
		if _, ok := got[m.Name]; !ok && !traced {
			return fmt.Errorf("BENCHMARK.json lists %s, which an untraced run does not measure", m.Name)
		}
		r.Metrics[m.Name] = metricValue{got[m.Name], m.Unit}
	}
	for _, name := range sortedKeys(got) {
		if !listed[name] {
			return fmt.Errorf("the run measured %q, which BENCHMARK.json does not list", name)
		}
	}
	return nil
}

// runConfig is how to run a workload.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	spec     *spec     // the metrics to report
	out      io.Writer // the human-readable report
	// The sizes below default, when 0, to the benchmark's own; tests
	// shrink them.
	setups int // set-ups per run; the median is reported, the last measured
	warmup int // warm-up ops; default the workload's
	minOps int // the measured phase's floor (each half's, in a traced run)
	// setupFor, when set with the default setups, adds set-ups until they
	// have taken this long in all, up to maxSetups.
	setupFor time.Duration
}

const (
	// setups is how many times an untraced run sets its workload up at
	// least. A set-up of a few tenths of a second varies with the host's
	// speed from one second to the next, so a short one is repeated until
	// setupFor has passed: its median then spans several of those seconds.
	setups    = 3
	setupFor  = 3 * time.Second
	maxSetups = 9
	// minOps is the measured-phase floor of an untraced run: with 1,000
	// samples, 10 lie beyond p99.
	minOps = 1000
	// tracedMinOps is the floor of each half of a traced run, which reports
	// only medians.
	tracedMinOps = 100
	// phaseLimit caps a measured phase that cannot reach its floor in time.
	phaseLimit = 100 * time.Second
)

// withDefaults fills the sizes left 0.
func (rc runConfig) withDefaults(w workload) runConfig {
	if rc.setups == 0 {
		rc.setups, rc.setupFor = setups, setupFor
		if rc.trace {
			rc.setups, rc.setupFor = 1, 0
		}
	}
	if rc.warmup == 0 {
		rc.warmup = w.warmup
	}
	if rc.minOps == 0 {
		rc.minOps = minOps
		if rc.trace {
			rc.minOps = tracedMinOps
		}
	}
	return rc
}

// runWorkload sets w up, measures it and checks it. An error means the run
// produced no valid measurement; a wrong output or a broken shape is
// reported through result.Correct instead.
func runWorkload(w workload, rc runConfig) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var notes []string
	fail := func(msg string) {
		res.Correct = false
		notes = append(notes, msg)
	}
	count := func(p phase) {
		res.Attempted += p.ops
		res.Failed += p.failed
		for _, e := range p.errs {
			fail(e)
		}
	}

	rc = rc.withDefaults(w)
	var (
		inst   *instance
		warm   phase
		setupS []float64
		spent  time.Duration
	)
	for inst == nil {
		t0 := time.Now()
		in, err := w.start(startOpts{seed: rc.seed, warmup: rc.warmup, traced: rc.trace})
		if err != nil {
			return res, fmt.Errorf("%s: setting up: %w", w.name, err)
		}
		ph := drive(in.concurrency, 0, upTo(rc.warmup), in.op)
		took := time.Since(t0)
		setupS = append(setupS, took.Seconds())
		spent += took
		count(ph)
		if n := len(setupS); n < rc.setups || (spent < rc.setupFor && n < maxSetups) {
			in.close()
			runtime.GC() // so the next set-up does not pay for this one's garbage
			continue
		}
		inst, warm = in, ph
	}
	defer inst.close()
	fmt.Fprintf(rc.out, "%s (seed %d): set up in %s s, warm-up %d ops\n", w.name, rc.seed, joinFloats(setupS, "%.3f"), warm.ops)

	d := time.Duration(rc.seconds * float64(time.Second))
	before := inst.t.stats()
	var (
		measured []phase
		layers   map[string]float64 // per-layer metrics that are not per-op samples
		rp       *replay
	)
	vals := map[string]float64{} // the end-to-end metrics of an untraced run
	if !rc.trace {
		p := drive(inst.concurrency, warm.next, forAtLeast(d, rc.minOps, phaseLimit), inst.op)
		measured = append(measured, p)
		vals["setup_s"] = median(setupS)
		vals["ops_per_s"] = float64(p.ops) / p.wall.Seconds()
		for _, q := range []float64{50, 90, 99} {
			v, err := percentile(p.latMs, q)
			if err != nil {
				return res, fmt.Errorf("%s: refusing latency_p%g_ms: %w", w.name, q, err)
			}
			vals[fmt.Sprintf("latency_p%g_ms", q)] = v
		}
	} else {
		// Half the time untraced, for the overhead baseline and the process
		// counters, then half traced.
		p0 := sampleProc()
		u := drive(inst.concurrency, warm.next, forAtLeast(d/2, rc.minOps, phaseLimit), inst.op)
		layers = sampleProc().since(p0, u.ops)
		mid := inst.t.stats()
		rp = newReplay(newRecorder())
		inst.t.rec.Store(rp.rec)
		t := drive(inst.concurrency, u.next, forAtLeast(d/2, rc.minOps, phaseLimit), inst.op)
		inst.t.rec.Store(nil)
		measured = append(measured, u, t)
		layers["trace.overhead_pct"] = (median(t.latMs)/median(u.latMs) - 1) * 100
		httpLayers(layers, rp, inst, countersBetween(mid, inst.t.stats()))
	}
	after := inst.t.stats()
	ops := 0
	for i := range measured {
		p := &measured[i]
		count(*p)
		ops += p.ops
		label := "measured"
		if rc.trace {
			label = [...]string{"untraced half", "traced half"}[i]
		}
		fmt.Fprintf(rc.out, "  %s: %d ops in %.2f s, %d latency samples\n", label, p.ops, p.wall.Seconds(), len(p.latMs))
		// The samples are summarised; dropping them keeps the client's own
		// bookkeeping, which grows with the op count, out of heap_mb.
		p.latMs = nil
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vals["heap_mb"] = float64(ms.HeapInuse) / (1 << 20)

	if err := inst.shape(countersBetween(before, after), ops); err != nil {
		fail("shape: " + err.Error())
	}
	last := warm.next
	if len(measured) > 0 {
		last = measured[len(measured)-1].next
	}
	checked, bad, err := inst.finish(last, rp)
	if err != nil {
		return res, fmt.Errorf("%s: checking outputs: %w", w.name, err)
	}
	res.Failed += len(bad)
	for i, b := range bad {
		if i < 5 {
			fail("oracle: " + b)
		}
	}
	fmt.Fprintf(rc.out, "  oracle: %d responses checked, %d differ\n", checked, len(bad))

	got := vals
	if rc.trace {
		spans := rp.rec.snapshot()
		linkRequests(spans)
		replayLayers(layers, spans, rp)
		path, err := writeSpans(rc.traceDir, w.name, spans)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(rc.out, "  %d spans written to %s\n", len(spans), path)
		got = layers
	}
	if err := res.report(rc.spec.metrics(rc.trace), got, rc.trace); err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, m := range rc.spec.metrics(rc.trace) {
		note := ""
		if rc.trace {
			note = layerNote(m.Name, rp)
		}
		fmt.Fprintf(rc.out, "  %-28s %12.4f %-6s %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit, note)
	}
	errorRate := 0.0
	if res.Attempted > 0 {
		errorRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(rc.out, "  error_rate %g (%d of %d ops failed)\n", errorRate, res.Failed, res.Attempted)
	for _, n := range notes {
		fmt.Fprintf(rc.out, "  FAIL %s\n", n)
	}
	return res, nil
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// procSample is the process's allocation and CPU accounting at one moment.
type procSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procSample{ms.Mallocs, ms.TotalAlloc, s[0].Value.Float64(), s[1].Value.Float64()}
}

// since returns the process metrics between a and p over ops ops. They
// count the client's allocations as well as the server's: both run here.
func (p procSample) since(a procSample, ops int) map[string]float64 {
	out := map[string]float64{}
	if cpu := p.totalCPU - a.totalCPU; cpu > 0 {
		out["process.gc_cpu_fraction"] = (p.gcCPU - a.gcCPU) / cpu
	}
	if ops > 0 {
		out["process.allocs_per_op"] = float64(p.mallocs-a.mallocs) / float64(ops)
		out["process.alloc_kb_per_op"] = float64(p.allocBytes-a.allocBytes) / 1024 / float64(ops)
	}
	return out
}

// httpLayers derives the per-layer metrics of the traced HTTP phase from the
// middleware's handler and router spans, the client spans, the job
// snapshots and the cache counters. Per-op values go to r's samples, the
// rest to out.
func httpLayers(out map[string]float64, r *replay, inst *instance, c counters) {
	spans := r.rec.snapshot()
	linkRequests(spans)
	type reqSpans struct{ client, router, handler float64 }
	byReq := map[string]*reqSpans{}
	get := func(id string) *reqSpans {
		if byReq[id] == nil {
			byReq[id] = &reqSpans{}
		}
		return byReq[id]
	}
	perMember := map[string]int{}
	for _, s := range spans {
		switch s.Name {
		case "service.handler":
			r.add("service.handler_ms", s.ms())
			get(s.Req).handler = s.ms()
			perMember[s.Member]++
		case "router.serve":
			get(s.Req).router = s.ms()
		case "http.client":
			get(s.Req).client = s.ms()
		}
	}
	for _, id := range sortedKeys(byReq) {
		q := byReq[id]
		outer := q.handler
		if q.router > 0 {
			outer = q.router
			r.add("router.hop_ms", q.router-q.handler)
		}
		if q.client > 0 && outer > 0 {
			r.add("http.client_ms", q.client-outer)
		}
	}
	r.samples["service.response_kb"] = inst.obs.respKB
	r.samples["service.queue_wait_ms"] = inst.obs.queueMs
	r.samples["service.run_ms"] = inst.obs.runMs
	if members := inst.t.members; len(members) > 0 {
		most, total := 0, 0
		for _, m := range members {
			most = max(most, perMember[m])
			total += perMember[m]
		}
		if total > 0 {
			out["router.shard_skew"] = float64(most) / (float64(total) / float64(len(members)))
		}
	}
	out["service.cache_hit_ratio"] = ratio(c.resultHits, c.resultHits+c.resultMisses)
	out["service.session_hit_ratio"] = ratio(c.sessionHits, c.sessionHits+c.sessionMisses)
	var hits, lookups int64
	for _, s := range c.stages {
		hits += s.Hits
		lookups += s.Hits + s.Misses
	}
	out["pipeline.stage_hit_ratio"] = ratio(hits, lookups)
	out["stream.regroups_per_1k"] = 1000 * ratio(c.regroups, c.arrivals)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayLayers adds the medians of the per-op samples and the time the
// replayed layers leave unexplained: the handler median minus the sum of
// the median self times of the layers on the workload's path.
func replayLayers(out map[string]float64, spans []span, r *replay) {
	for name, xs := range r.samples {
		out[name] = median(xs)
	}
	handler := out["service.handler_ms"]
	if handler == 0 {
		return
	}
	sum := 0.0
	for _, v := range selfMedians(spans) {
		sum += v
	}
	out["unattributed_ms"] = handler - sum
}

// layerNote prints a replayed timing's spread next to its median.
func layerNote(name string, r *replay) string {
	xs := r.samples[name]
	if len(xs) < 2 {
		return ""
	}
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("(IQR %.4f, n=%d)", q3-q1, len(xs))
}
