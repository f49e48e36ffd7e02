package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

func roleRequest(t *testing.T) Request {
	t.Helper()
	set, err := constraints.ParseSet("distinct(role) <= 1")
	if err != nil {
		t.Fatal(err)
	}
	return Request{
		Index:       eventlog.NewIndex(procgen.RunningExampleTable1()),
		Constraints: set,
		Config:      core.Config{Mode: core.DFGUnbounded},
	}
}

// slowRequest is a problem large enough to keep a worker busy for the whole
// test unless cancelled: unbudgeted exhaustive enumeration on the loan log.
func slowRequest(t *testing.T) Request {
	t.Helper()
	set, err := constraints.ParseSet("distinct(role) <= 1")
	if err != nil {
		t.Fatal(err)
	}
	return Request{
		Index:       eventlog.NewIndex(procgen.LoanLog(400, 17)),
		Constraints: set,
		Config:      core.Config{Mode: core.Exhaustive},
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	req := roleRequest(t)

	res1, meta1, err := svc.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if meta1.Cached {
		t.Fatal("first request reported cached")
	}
	if !res1.Feasible {
		t.Fatal("running example with role constraint should be feasible")
	}

	res2, meta2, err := svc.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !meta2.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if res2.Distance != res1.Distance {
		t.Fatalf("cached distance %v != fresh distance %v", res2.Distance, res1.Distance)
	}

	st := svc.Stats()
	if st.Cache.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.Cache.Hits)
	}
	if st.Cache.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", st.Cache.Misses)
	}
	if st.Cache.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.Cache.Entries)
	}
	if st.Jobs.Started != 1 {
		t.Fatalf("jobs started = %d, want 1 (cache hit must not start a job)", st.Jobs.Started)
	}
}

// Reordered constraint declarations and differing worker counts are the
// same request: the canonical key must coincide.
func TestRequestKeyCanonicalisation(t *testing.T) {
	setA, _ := constraints.ParseSet("distinct(role) <= 1\n|g| <= 8")
	setB, _ := constraints.ParseSet("|g| <= 8\ndistinct(role) <= 1")
	log := procgen.RunningExampleTable1()
	d := LogDigest(log)
	kA := requestKey(d, setA, core.Config{Mode: core.DFGUnbounded, Workers: 1})
	kB := requestKey(d, setB, core.Config{Mode: core.DFGUnbounded, Workers: 8})
	if kA != kB {
		t.Fatal("reordered constraints / different worker counts split the cache key")
	}
	kC := requestKey(d, setA, core.Config{Mode: core.Exhaustive})
	if kA == kC {
		t.Fatal("different modes share a cache key")
	}
}

// Two constraint sets that differ only in which name a quoted comma sits
// in are different requests, and must not share a cache key.
func TestRequestKeyQuotedNames(t *testing.T) {
	setA, errA := constraints.ParseSet("cannotlink('a, b', c)")
	setB, errB := constraints.ParseSet("cannotlink(a, 'b, c')")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	d := LogDigest(procgen.RunningExampleTable1())
	if requestKey(d, setA, core.Config{}) == requestKey(d, setB, core.Config{}) {
		t.Fatal("cannotlink('a, b', c) and cannotlink(a, 'b, c') share a cache key")
	}
}

func TestLogDigestSensitivity(t *testing.T) {
	a := procgen.RunningExampleTable1()
	b := procgen.RunningExampleTable1()
	if LogDigest(a) != LogDigest(b) {
		t.Fatal("identical logs produced different digests")
	}
	// The log name is wire-format-dependent (XES carries concept:name,
	// CSV cannot) and must not split the cache key.
	b.Name = "renamed"
	if LogDigest(a) != LogDigest(b) {
		t.Fatal("log name changed the digest; XES and CSV uploads of the same events must collide")
	}
	b.Traces[0].Events[0].Class = "mutated"
	if LogDigest(a) == LogDigest(b) {
		t.Fatal("mutated log kept the same digest")
	}
}

// Timestamps differing only in fractional seconds change gap/span
// constraint outcomes, so they must change the digest too (AsString
// renders RFC3339 without sub-second precision).
func TestLogDigestSubSecondTimestamps(t *testing.T) {
	base := time.Date(2024, 1, 1, 10, 0, 0, 0, time.UTC)
	mk := func(nanos int) *eventlog.Log {
		return &eventlog.Log{Traces: []eventlog.Trace{{
			ID: "t1",
			Events: []eventlog.Event{
				{Class: "a", Attrs: map[string]eventlog.Value{
					eventlog.AttrTimestamp: eventlog.Time(base.Add(time.Duration(nanos))),
				}},
			},
		}}}
	}
	if LogDigest(mk(0)) == LogDigest(mk(int(900*time.Millisecond))) {
		t.Fatal("logs differing only in sub-second timestamps collided on one digest")
	}
}

// Finished jobs beyond maxRetainedResults drop their full result (the
// abstracted log) while keeping metadata, bounding retained memory.
func TestRetainedResultsEvicted(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	svc.maxRetainedResults = 1

	first, err := svc.Submit(roleRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, first.ID)
	// A different (non-coalescing) request pushes the first job past the
	// retained-results bound.
	req2 := roleRequest(t)
	req2.Config.Mode = core.Exhaustive
	second, err := svc.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, second.ID)

	got1, err := svc.Job(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got1.Result != nil || !got1.ResultEvicted {
		t.Fatalf("oldest job kept its result: evicted=%t result=%v", got1.ResultEvicted, got1.Result != nil)
	}
	got2, err := svc.Job(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Result == nil || got2.ResultEvicted {
		t.Fatal("newest job lost its result")
	}
	// The evicted job's result is still servable through the cache.
	req1 := roleRequest(t)
	if _, meta, err := svc.Do(context.Background(), req1); err != nil || !meta.Cached {
		t.Fatalf("re-POST after eviction: err=%v cached=%t", err, meta.Cached)
	}
}

func waitDone(t *testing.T, svc *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == StateDone {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
}

// Wall-clock budgets make results timing-dependent; they must bypass the
// cache rather than serve one run's lucky cut to every later caller.
func TestTimeLimitedRequestsNotCached(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	req := roleRequest(t)
	req.Config.SolverTimeout = time.Minute
	if _, meta, err := svc.Do(context.Background(), req); err != nil || meta.Cached {
		t.Fatalf("err=%v cached=%t", err, meta.Cached)
	}
	if _, meta, err := svc.Do(context.Background(), req); err != nil || meta.Cached {
		t.Fatalf("second time-limited request: err=%v cached=%t, want fresh run", err, meta.Cached)
	}
	if st := svc.Stats(); st.Cache.Entries != 0 {
		t.Fatalf("cache entries = %d, want 0", st.Cache.Entries)
	}
}

// Identical concurrent requests coalesce onto one pipeline run. The single
// concurrency slot is held by a slow blocker job, so the coalescing
// requests join the queued job deterministically.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	svc := New(Options{MaxConcurrent: 1})
	defer svc.Close()

	blocker, err := svc.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	// The blocker must hold the slot before the victim is submitted, or
	// the victim could win the race for it and complete immediately.
	deadline0 := time.Now().Add(5 * time.Second)
	for svc.Stats().Jobs.Running == 0 && time.Now().Before(deadline0) {
		time.Sleep(5 * time.Millisecond)
	}
	queued, err := svc.Submit(roleRequest(t))
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	var wg sync.WaitGroup
	results := make([]*JobResult, n)
	metas := make([]Meta, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], metas[i], errs[i] = svc.Do(context.Background(), roleRequest(t))
		}(i)
	}
	// Give the Do calls time to register as waiters, then free the slot.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Jobs.Coalesced < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := svc.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !metas[i].CoalescedInto {
			t.Fatalf("request %d did not coalesce", i)
		}
		if metas[i].JobID != queued.ID {
			t.Fatalf("request %d ran as job %s, want shared job %s", i, metas[i].JobID, queued.ID)
		}
		if results[i].Distance != results[0].Distance {
			t.Fatalf("coalesced results diverge: %v vs %v", results[i].Distance, results[0].Distance)
		}
	}
	st := svc.Stats()
	if st.Jobs.Started != 2 { // blocker + one shared run
		t.Fatalf("jobs started = %d, want 2", st.Jobs.Started)
	}
	if st.Jobs.Coalesced != n {
		t.Fatalf("coalesced = %d, want %d", st.Jobs.Coalesced, n)
	}
}

// A cancelled request stops its pipeline run without affecting a
// concurrently running job.
func TestCancelStopsPipelineWithoutCollateral(t *testing.T) {
	svc := New(Options{MaxConcurrent: 2})
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	slowDone := make(chan error, 1)
	go func() {
		_, _, err := svc.Do(ctx, slowRequest(t))
		slowDone <- err
	}()
	// Wait until the slow job is running, then cancel its only waiter.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Jobs.Running == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-slowDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request did not return")
	}

	// The unrelated job is unaffected.
	res, _, err := svc.Do(context.Background(), roleRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("concurrent job infeasible after cancellation of another")
	}
	// The cancelled pipeline must actually stop (not burn CPU detached).
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := svc.Stats(); st.Jobs.Cancelled >= 1 && st.Jobs.Running == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := svc.Stats()
	t.Fatalf("pipeline still running after cancel: %+v", st.Jobs)
}

// Beyond maxQueued waiting jobs, new non-coalescing requests are rejected
// with ErrBusy instead of pinning unbounded parsed logs in memory;
// coalescing joins stay exempt.
func TestQueueBackpressure(t *testing.T) {
	svc := New(Options{MaxConcurrent: 1})
	defer svc.Close()
	svc.maxQueued = 1

	blocker, err := svc.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Jobs.Running == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	queued, err := svc.Submit(roleRequest(t)) // fills the single queue slot
	if err != nil {
		t.Fatal(err)
	}
	overflow := roleRequest(t)
	overflow.Config.Mode = core.Exhaustive // distinct key: must not coalesce
	if _, err := svc.Submit(overflow); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow submit err = %v, want ErrBusy", err)
	}
	// Coalescing onto the queued job is still allowed when the queue is full.
	if snap, err := svc.Submit(roleRequest(t)); err != nil || snap.ID != queued.ID {
		t.Fatalf("coalescing join: err=%v id=%s want %s", err, snap.ID, queued.ID)
	}
	if _, err := svc.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, queued.ID)
	// With the queue drained, new requests are accepted again.
	if _, err := svc.Submit(overflow); err != nil {
		t.Fatalf("post-drain submit err = %v", err)
	}
}

// A request whose last waiter departs is unregistered from the coalescing
// table immediately, so a new identical request starts a fresh run instead
// of joining the doomed one and inheriting its cancellation.
func TestAbandonedJobLeavesInflightTable(t *testing.T) {
	svc := New(Options{MaxConcurrent: 1})
	defer svc.Close()

	// Occupy the single slot so the victim job stays queued; wait for the
	// blocker to actually hold it or the victim could win the race for it.
	blocker, err := svc.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Jobs.Running == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	victimDone := make(chan error, 1)
	go func() {
		_, _, err := svc.Do(ctx, roleRequest(t))
		victimDone <- err
	}()
	deadline = time.Now().Add(5 * time.Second)
	for svc.Stats().Jobs.Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel() // sole waiter departs; the queued job is doomed
	if err := <-victimDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned request err = %v", err)
	}

	// An identical request must now start fresh, not coalesce.
	fresh := make(chan Meta, 1)
	go func() {
		_, meta, err := svc.Do(context.Background(), roleRequest(t))
		if err != nil {
			t.Error(err)
		}
		fresh <- meta
	}()
	if _, err := svc.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case meta := <-fresh:
		if meta.CoalescedInto {
			t.Fatal("new request coalesced onto an abandoned, cancelled job")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("fresh request did not complete")
	}
}

// TestCacheLRUEviction: a full result cache evicts its least recently
// used entry, whatever its capacity.
func TestCacheLRUEviction(t *testing.T) {
	for _, capacity := range []int{2, 16, 256} {
		svc := New(Options{CacheCapacity: capacity})
		t.Cleanup(svc.Close)
		c := svc.cache
		a := &JobResult{Distance: 1}
		b := &JobResult{Distance: 2}
		d := &JobResult{Distance: 3}
		c.put("a", a)
		c.put("b", b)
		for i := 2; i < capacity; i++ {
			c.put(fmt.Sprintf("fill-%d", i), &JobResult{})
		}
		if _, ok := c.get("a"); !ok { // bump a; b becomes LRU
			t.Fatalf("capacity %d: a missing", capacity)
		}
		c.put("d", d)
		if _, ok := c.get("b"); ok {
			t.Fatalf("capacity %d: LRU entry b survived eviction", capacity)
		}
		if _, ok := c.get("a"); !ok {
			t.Fatalf("capacity %d: recently used entry a was evicted", capacity)
		}
		st := svc.Stats().Cache
		if st.Evictions != 1 {
			t.Fatalf("capacity %d: evictions = %d, want 1", capacity, st.Evictions)
		}
		if st.Entries != capacity {
			t.Fatalf("capacity %d: entries = %d, want %d", capacity, st.Entries, capacity)
		}
	}
}

// /stats reports exactly the configured result-cache capacity.
func TestCacheCapacityExact(t *testing.T) {
	for _, capacity := range []int{2, 16, 20, 100, 256, 1000} {
		svc := New(Options{CacheCapacity: capacity})
		got := svc.Stats().Cache.Capacity
		svc.Close()
		if got != capacity {
			t.Fatalf("CacheCapacity %d: capacity = %d", capacity, got)
		}
	}
}

func TestJobLookupAndNotFound(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	if _, err := svc.Job("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	snap, err := svc.Submit(roleRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got, err := svc.Job(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == StateDone {
			if got.Result == nil || !got.Result.Feasible {
				t.Fatalf("done job has result %+v", got.Result)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("async job did not finish")
}

func TestCloseCancelsRunningJobs(t *testing.T) {
	svc := New(Options{MaxConcurrent: 1})
	snap, err := svc.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Jobs.Running == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	done := make(chan struct{})
	go func() { svc.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Close did not stop the running job")
	}
	got, err := svc.Job(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("job state after Close = %s, want cancelled", got.State)
	}
}

// TestJobPanicFailsJob: a panic in a job's goroutine — here the lazy index
// loader, which runs there when the wire memo knows an upload's digest but
// no session holds its log — fails that job and is counted, and the
// service keeps serving.
func TestJobPanicFailsJob(t *testing.T) {
	for _, opts := range []Options{{}, {SessionCapacity: -1}} {
		svc := New(opts)
		req := roleRequest(t)
		req.Index, req.digest = nil, "digest of an upload whose loader panics"
		req.loadIndex = func() (*eventlog.Index, error) { panic("loader bug") }
		if _, _, err := svc.Do(context.Background(), req); err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("SessionCapacity=%d: err = %v, want the job to fail with the panic", opts.SessionCapacity, err)
		}
		if st := svc.Stats().Jobs; st.Panicked != 1 || st.Failed != 1 {
			t.Fatalf("SessionCapacity=%d: jobs = %+v, want 1 panicked and 1 failed", opts.SessionCapacity, st)
		}
		if _, _, err := svc.Do(context.Background(), roleRequest(t)); err != nil {
			t.Fatalf("SessionCapacity=%d: service stopped serving after a panic: %v", opts.SessionCapacity, err)
		}
		svc.Close()
	}
}
