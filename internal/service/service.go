// Package service is the serving layer over the GECCO pipeline: a job
// manager running a bounded number of concurrent abstraction jobs, one
// exact LRU cache of results keyed by log digest + canonicalised
// constraint set + config, and coalescing of identical in-flight requests
// onto a single pipeline run.
//
// Under the result cache sits a two-tier session cache. The hot tier is an
// in-RAM LRU of live core.Sessions keyed by log digest: a request on a
// known log reuses its frozen index, DFG, and warm distance memo. With
// Options.DataDir set, a warm tier persists under that directory: evicted
// sessions spill their columnar index to disk (docs/FORMAT.md) and are
// rebuilt via eventlog.OpenIndex — pure IO — instead of re-parsing;
// feasible cacheable results are written through and reloaded at startup;
// Close spills the whole working set so a restart comes up warm. The disk
// tier is strictly a cache: every file is checksummed, and corruption
// falls back to the cold path. docs/ARCHITECTURE.md diagrams the flow.
//
// Cancellation is cooperative end to end: every job runs under a context
// derived from the service's base context, a synchronous caller that goes
// away (client disconnect, timeout) cancels the job when it was its last
// waiter, and shutting the service down cancels everything mid-frontier
// via Session.SolveIndex, which carries the job's context.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gecco/internal/abstraction"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
)

// JobResult is the solve outcome the result cache and finished jobs hold,
// and that a /pipeline abstract stage or a stream regroup reads: the
// fields of core.Result the serving layer uses, with the abstracted log in
// the columnar form Step 3 built it in. It has no *eventlog.Log field: a
// cached *Log is a pointer-dense copy the garbage collector scans on every
// cycle, for a log every response serialises straight from the Index.
type JobResult struct {
	Feasible bool
	// Grouping holds the selected groups and their activity names; a
	// result loaded from the warm tier carries the names only.
	Grouping     abstraction.Grouping
	GroupClasses [][]string
	Distance     float64
	// Abstracted is the abstracted log when the solve is feasible, and the
	// input log when it is not (§V-C): then it is the index of the session
	// the solve ran on, shared rather than copied. It is nil for a
	// grouping-only stream regroup.
	Abstracted *eventlog.Index
	// Diagnostics explains infeasibility (nil when feasible).
	Diagnostics *constraints.Violations

	NumCandidates      int
	CandidatesTimedOut bool
	ConstraintChecks   int
	SolverNodes        int
	Timings            core.Timings
}

// newJobResult keeps what the serving layer uses of a SolveIndex outcome.
func newJobResult(res *core.Result, abstracted *eventlog.Index) *JobResult {
	return &JobResult{
		Feasible:           res.Feasible,
		Grouping:           res.Grouping,
		GroupClasses:       res.GroupClasses,
		Distance:           res.Distance,
		Abstracted:         abstracted,
		Diagnostics:        res.Diagnostics,
		NumCandidates:      res.NumCandidates,
		CandidatesTimedOut: res.CandidatesTimedOut,
		ConstraintChecks:   res.ConstraintChecks,
		SolverNodes:        res.SolverNodes,
		Timings:            res.Timings,
	}
}

// coreResult is the result as the pipeline engine and the online
// abstractor take it: a core.Result without a *Log. The abstracted log
// travels beside it as r.Abstracted.
func (r *JobResult) coreResult() *core.Result {
	return &core.Result{
		Feasible:           r.Feasible,
		Grouping:           r.Grouping,
		GroupClasses:       r.GroupClasses,
		Distance:           r.Distance,
		Diagnostics:        r.Diagnostics,
		NumCandidates:      r.NumCandidates,
		CandidatesTimedOut: r.CandidatesTimedOut,
		ConstraintChecks:   r.ConstraintChecks,
		SolverNodes:        r.SolverNodes,
		Timings:            r.Timings,
	}
}

// Options tunes the service; zero values pick serving-friendly defaults.
// A negative capacity turns its feature off.
type Options struct {
	// MaxConcurrent bounds the number of pipeline runs executing at once;
	// further jobs queue, up to 4×MaxConcurrent waiting runs. <= 0 means
	// one per CPU.
	MaxConcurrent int
	// CacheCapacity is the number of results the LRU retains; 0 means the
	// default (256). Negative disables the result cache and the /pipeline
	// stage cache entirely.
	CacheCapacity int
	// SessionCapacity bounds the LRU of live per-log sessions (index, DFG,
	// warm distance memo) kept under the result cache, so a repeat log with
	// fresh constraints skips the constraint-independent analysis. Each
	// session pins its log's index and memos in memory. 0 means 16.
	// Negative disables the session cache: every job rebuilds its log's
	// analysis state from scratch.
	SessionCapacity int
	// MaxStreams bounds the named online-abstractor states kept live for
	// POST /stream (each pins a window of traces plus its grouping).
	// Creating a stream beyond the bound evicts the least recently used
	// one. 0 means 64. Negative disables the streaming endpoint.
	MaxStreams int
	// DefaultWorkers is the per-job worker count applied when a request
	// leaves Config.Workers at 0; 0 keeps the pipeline default (all CPUs).
	DefaultWorkers int
	// DataDir, when set, enables the warm tier: sessions evicted from the
	// in-RAM LRU spill their columnar index to <DataDir>/index/<digest>.gidx
	// (rebuilt later via OpenIndex instead of re-parsing), feasible cacheable
	// results persist to <DataDir>/results/ and are reloaded into the result
	// cache at startup, and Close spills every live session so a restart
	// warm-opens its working set. Empty keeps the service purely in-memory.
	// The directory is created if missing; if it cannot be, persistence is
	// disabled with a note on stderr and the service runs in-memory.
	DataDir string
	// JobIDPrefix is prepended to generated job IDs ("job-1" becomes
	// "<prefix>job-1"). In a sharded cluster each shard sets a distinct
	// prefix ("s0-", "s1-", ...) so a job ID names its owning shard and the
	// router can forward GET /jobs/{id} polls without a lookup table. Empty
	// keeps the classic unprefixed IDs.
	JobIDPrefix string
}

// withDefaults fills in the defaults; afterwards a capacity of 0 means
// the feature is off.
func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.NumCPU()
	}
	o.CacheCapacity = capacityOrDefault(o.CacheCapacity, 256)
	o.SessionCapacity = capacityOrDefault(o.SessionCapacity, 16)
	o.MaxStreams = capacityOrDefault(o.MaxStreams, 64)
	return o
}

// capacityOrDefault maps a capacity option onto its bound: 0 picks def,
// and a negative value turns the feature off (0).
func capacityOrDefault(n, def int) int {
	switch {
	case n == 0:
		return def
	case n < 0:
		return 0
	}
	return n
}

// Fixed bounds of the serving layer's bookkeeping.
const (
	// maxRetainedJobs bounds the finished jobs kept for GET /jobs/{id}
	// lookups; the oldest finished jobs are dropped first.
	maxRetainedJobs = 1024
	// maxRetainedResults bounds how many of those finished jobs keep their
	// full result, which includes the abstracted log's index: tens of KiB
	// for a few hundred traces, but it grows with the log. Older finished
	// jobs keep their metadata but drop the result; cacheable ones remain
	// servable from the LRU by re-POSTing.
	maxRetainedResults = 64
	// sessionMemoLimit retires a live session once its distance memo holds
	// more than this many entries (about 262k, tens of MB on typical class
	// counts). The memo grows with every distinct candidate group ever
	// costed and is never evicted — the price of warm solves — so without a
	// bound, a hot log's session on a long-running server would grow
	// monotonically. A retired session is simply dropped; the next request
	// on that log rebuilds a fresh one.
	sessionMemoLimit = 1 << 18
	// pipelineCacheCapacity bounds the per-stage state LRU behind POST
	// /pipeline; each entry pins the indexes a pipeline state carries.
	pipelineCacheCapacity = 64
)

// Request is one abstraction problem: a log in its columnar form, a parsed
// constraint set, and a pipeline configuration.
type Request struct {
	Index       *eventlog.Index
	Constraints *constraints.Set
	Config      core.Config
	// Tag is opaque caller metadata echoed on job snapshots; the HTTP
	// layer records the request's wire format here so async polls can
	// serialise the result the way the submitter sent it. Coalesced jobs
	// keep the first submitter's tag (HTTP pollers can override with
	// ?format=). It does not participate in the cache key.
	Tag string
	// digest memoises IndexDigest(Index) so a batch solving N constraint
	// sets against one log hashes it once, not N times. Filled lazily
	// inside the service; external callers leave it empty.
	digest string
	// loadIndex, when non-nil, parses the uploaded log on demand. The HTTP
	// layer sets it together with a pre-known digest (via the wire-digest
	// memo) and leaves Index nil, so requests served from the result cache —
	// or from a live or warm-opened session — never pay the parse.
	// Invariant: either Index is non-nil or digest is non-empty.
	loadIndex func() (*eventlog.Index, error)
}

// logDigest returns the request's memoised log digest, computing it on
// first use.
func (r *Request) logDigest() string {
	if r.digest == "" {
		r.digest = IndexDigest(r.Index)
	}
	return r.digest
}

// index returns the log's index, invoking the lazy loader on first use.
func (r *Request) index() (*eventlog.Index, error) {
	if r.Index == nil && r.loadIndex != nil {
		x, err := r.loadIndex()
		if err != nil {
			return nil, err
		}
		r.Index = x
	}
	return r.Index, nil
}

// JobState enumerates a job's lifecycle.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Job is one tracked pipeline run. All mutable fields are guarded by the
// service mutex; callers observe jobs through Snapshot.
type Job struct {
	id     string
	key    string // request key; "" when the request is not cacheable
	tag    string
	state  JobState
	result *JobResult
	// resultEvicted marks a done job whose result was dropped by the
	// retained-results bound; cacheable results remain fetchable via the
	// LRU by re-POSTing the request.
	resultEvicted bool
	err           error
	created       time.Time
	started       time.Time
	ended         time.Time

	waiters  int // synchronous callers currently waiting
	detached bool
	// cacheBacked marks a job synthesised from a cache hit: its result
	// aliases the LRU entry, so dropping it would free nothing and it is
	// exempt from the retained-results accounting.
	cacheBacked bool
	cancel      context.CancelFunc
	done        chan struct{}
}

// JobSnapshot is an immutable view of a job.
type JobSnapshot struct {
	ID    string
	Tag   string
	State JobState
	// Result is nil on a done job when ResultEvicted is set.
	Result        *JobResult
	ResultEvicted bool
	Err           error
	Created       time.Time
	Started       time.Time
	Ended         time.Time
	Coalesce      int // waiters sharing the run when snapshotted
}

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("service: job not found")

// ErrBusy is returned when the queue of jobs waiting for a concurrency
// slot is full; the caller should retry later.
var ErrBusy = errors.New("service: job queue full")

// ErrInvalidRequest marks client-input validation failures (HTTP 400, not
// 500).
var ErrInvalidRequest = errors.New("service: invalid request")

// ErrClosed is returned for requests arriving during or after Close.
var ErrClosed = errors.New("service: shutting down")

// JobStats counts job outcomes since the service started.
type JobStats struct {
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Coalesced int64 `json:"coalesced"` // requests that joined an in-flight identical run
	// Panicked counts jobs whose goroutine panicked; each of them is also
	// counted as failed.
	Panicked int64 `json:"panicked"`
	Running  int   `json:"running"`
	Queued   int   `json:"queued"`
}

// CacheStats is the result cache's accounting: hits and misses of the
// lookups requests make, the results evicted past capacity, and occupancy.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// UploadStats counts the upload path's work on uploaded logs.
type UploadStats struct {
	// Parsed counts uploads parsed into an index; an upload that fails to
	// parse is not counted. A re-upload the wire memo knows is parsed only
	// when a run needs its events and no live session holds them (for
	// /abstract, nor the warm tier), and the sets of a batch share one
	// parse.
	Parsed int64 `json:"parsed"`
	// Decoded counts the envelope log strings unescaped in full: those the
	// node's log memo did not know and that validated. A re-sent string is
	// counted once per node, and a raw body never.
	Decoded int64 `json:"decoded"`
}

// Stats is the /stats payload.
type Stats struct {
	Cache   CacheStats  `json:"cache"`
	Uploads UploadStats `json:"uploads"`
	// Sessions reports the session-cache layer under the result cache: hits
	// are jobs that reused a live per-log session (warm index and distance
	// memo) instead of rebuilding it.
	Sessions SessionStats `json:"sessions"`
	// Streams reports the online workload: live named streams, lifecycle
	// counts, and arrival/regrouping totals across all streams ever served.
	Streams StreamStats `json:"streams"`
	Jobs    JobStats    `json:"jobs"`
	// Pipeline reports the staged-run engine: per-stage cache hit/miss
	// counters and the state LRU's occupancy.
	Pipeline PipelineStats `json:"pipeline"`
	// Disk reports the warm tier under the data dir; nil when DataDir is
	// unset (or its store could not be opened).
	Disk *DiskStats `json:"disk,omitempty"`
}

// resultCache maps a request key (requestKey) to its solved result.
type resultCache = memo[string, *JobResult]

// Service runs abstraction jobs with bounded concurrency, caching, and
// request coalescing. Create with New; Close cancels everything.
type Service struct {
	opts     Options
	cache    *resultCache
	sessions *sessionCache  // nil when sessions are off
	streams  *streamManager // nil when streaming is off
	store    *diskStore     // nil when DataDir unset or unusable
	pipe     *stageCache    // nil when the pipeline cache is disabled
	wire     *wireMemo      // upload wire identity -> canonical log digest
	logs     *logMemo       // envelope log string -> its decoded digest
	sem      chan struct{}

	// maxQueued bounds the jobs and /pipeline runs waiting for a
	// concurrency slot; beyond it new non-coalescing requests are rejected
	// with ErrBusy (HTTP 503) as backpressure — each waiting run pins its
	// upload in memory, and its parsed index too unless the wire memo knew
	// the upload. It is 4×MaxConcurrent.
	maxQueued int
	// maxRetainedResults and sessionMemoLimit start at the constants of
	// the same names. Tests lower these three bounds right after New.
	maxRetainedResults int
	sessionMemoLimit   int

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	jobOrder []string        // insertion order, for bounded retention
	inflight map[string]*Job // request key -> running/queued job
	queued   int             // jobs waiting for a concurrency slot
	nextID   int64

	started      atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	cancelled    atomic.Int64
	coalesced    atomic.Int64
	panicked     atomic.Int64
	pipelineRuns atomic.Int64
	// cacheHits and cacheMisses count lookup's result-cache lookups, and
	// cacheEvictions the results the cache evicted past capacity.
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64
	// uploadsParsed counts the parses openLog's loaders run.
	uploadsParsed atomic.Int64
	// uploadsDecoded counts the log strings decodeEnvelope unescaped.
	uploadsDecoded atomic.Int64
	active         sync.WaitGroup

	// draining marks the service as leaving rotation: /readyz reports 503 so
	// routers and load balancers stop sending new work, while liveness and
	// in-flight jobs are unaffected. Set by StartDrain (and by Close).
	draining atomic.Bool
}

// New builds a service; the caller must Close it.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	//lint:gecco-allow(ctxflow): service-lifetime root by design: jobs outlive the submitting request and are cancelled via Close or DELETE /jobs/{id}
	ctx, cancel := context.WithCancel(context.Background())
	var store *diskStore
	if opts.DataDir != "" {
		var err error
		if store, err = openDiskStore(opts.DataDir); err != nil {
			// New has no error return by contract; a server that cannot
			// persist still serves, just cold after restarts.
			fmt.Fprintf(os.Stderr, "service: persistence disabled: %v\n", err)
			store = nil
		}
	}
	var sessions *sessionCache
	if opts.SessionCapacity > 0 {
		sessions = newSessionCache(opts.SessionCapacity, store)
	}
	var streams *streamManager
	if opts.MaxStreams > 0 {
		streams = newStreamManager(opts.MaxStreams)
	}
	var pipe *stageCache
	if opts.CacheCapacity > 0 {
		pipe = newStageCache(pipelineCacheCapacity)
	}
	s := &Service{
		opts:       opts,
		sessions:   sessions,
		streams:    streams,
		store:      store,
		pipe:       pipe,
		wire:       newWireMemo(),
		logs:       newLogMemo(wireMemoCapacity),
		sem:        make(chan struct{}, opts.MaxConcurrent),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),

		maxQueued:          4 * opts.MaxConcurrent,
		maxRetainedResults: maxRetainedResults,
		sessionMemoLimit:   sessionMemoLimit,
	}
	s.cache = newMemo[string](opts.CacheCapacity, func(*JobResult) { s.cacheEvictions.Add(1) })
	if store != nil && opts.CacheCapacity > 0 {
		store.loadResults(s.cache)
	}
	return s
}

// Close cancels every queued and running job and waits for them to stop.
// Requests arriving at or after Close are rejected with ErrClosed, so no
// job can start once the wait begins. With a warm tier configured, every
// live session's index is spilled after the jobs drain, so a restarted
// process warm-opens its whole working set.
func (s *Service) Close() {
	s.draining.Store(true)
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.streams != nil {
		// Drain the streaming workload: retire every live stream and
		// reject new /stream requests; in-flight regroups are cancelled by
		// the base context below.
		s.streams.closeAll()
	}
	s.baseCancel()
	s.active.Wait()
	if s.sessions != nil {
		s.sessions.spillAll()
	}
	if s.store != nil {
		s.store.close()
	}
}

// StartDrain takes the service out of rotation without stopping it:
// readiness (/readyz) flips to 503 so routers remove the shard, while
// liveness stays green and queued and running jobs finish normally. The
// intended departure sequence is StartDrain → stop accepting connections →
// Close (which cancels stragglers and spills every live session to the warm
// tier, so ring successors warm-open the .gidx files instead of re-parsing).
func (s *Service) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain (or Close) has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Meta describes how a synchronous request was served.
type Meta struct {
	JobID  string `json:"jobId,omitempty"`
	Cached bool   `json:"cached"`
	// CoalescedInto is set when the request joined an identical in-flight
	// job instead of starting its own run.
	CoalescedInto bool `json:"coalesced,omitempty"`
}

// Do serves a request synchronously: from the cache when possible,
// otherwise by joining an identical in-flight run or starting a new job.
// Cancelling ctx abandons the wait; when this caller was the job's last
// waiter (and no detached submission holds it), the pipeline itself is
// cancelled mid-frontier.
func (s *Service) Do(ctx context.Context, req Request) (*JobResult, Meta, error) {
	if err := validate(req); err != nil {
		return nil, Meta{}, err
	}
	key, res, ok := s.lookup(&req)
	if ok {
		return res, Meta{Cached: true}, nil
	}
	job, joined, cached, err := s.startOrJoin(key, &req, false)
	if err != nil {
		return nil, Meta{}, err
	}
	if cached != nil {
		return cached, Meta{Cached: true}, nil
	}
	res, err = s.wait(ctx, job)
	return res, Meta{JobID: job.id, CoalescedInto: joined}, err
}

// Submit starts (or joins) a job asynchronously and returns its snapshot
// immediately. Detached jobs run to completion unless cancelled explicitly
// or by service shutdown.
func (s *Service) Submit(req Request) (JobSnapshot, error) {
	if err := validate(req); err != nil {
		return JobSnapshot{}, err
	}
	key, res, ok := s.lookup(&req)
	if ok {
		// Synthesise an already-done job so the client's poll loop is
		// uniform; it is retained like any other finished job.
		return s.adoptCached(key, req.Tag, res), nil
	}
	job, _, cached, err := s.startOrJoin(key, &req, true)
	if err != nil {
		return JobSnapshot{}, err
	}
	if cached != nil {
		return s.adoptCached(key, req.Tag, cached), nil
	}
	return s.Job(job.id)
}

// Job returns a snapshot of the job with the given ID.
func (s *Service) Job(id string) (JobSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobSnapshot{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return job.snapshotLocked(), nil
}

// Cancel cancels a queued or running job by ID. Cancellation is
// asynchronous — the pipeline observes it at its next sampling point — so
// the returned snapshot may still show the job running; poll Job until it
// reaches StateCancelled. The job is unregistered from the in-flight table
// immediately, so new identical requests start a fresh run instead of
// joining the doomed one.
func (s *Service) Cancel(id string) (JobSnapshot, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobSnapshot{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.dropInflightLocked(job)
	cancel := job.cancel
	s.mu.Unlock()
	cancel()
	return s.Job(id)
}

// dropInflightLocked unregisters the job from the coalescing table if it is
// still the registered run for its key. The guard matters: a fresh job may
// already have re-registered under the same key. Requires s.mu.
func (s *Service) dropInflightLocked(job *Job) {
	if job.key != "" && s.inflight[job.key] == job {
		delete(s.inflight, job.key)
	}
}

// Busy reports whether the waiting queue is full, for cheap fast-path
// rejection before a caller pays to read and parse a request body. A busy
// service may still serve cache hits and coalescing joins, so this is a
// load-shedding heuristic, not a guarantee of rejection.
func (s *Service) Busy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued >= s.maxQueued
}

// Stats snapshots cache and job counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Cache: CacheStats{
			Hits:      s.cacheHits.Load(),
			Misses:    s.cacheMisses.Load(),
			Evictions: s.cacheEvictions.Load(),
			Entries:   s.cache.len(),
			Capacity:  s.opts.CacheCapacity,
		},
		Uploads: UploadStats{Parsed: s.uploadsParsed.Load(), Decoded: s.uploadsDecoded.Load()},
	}
	if s.sessions != nil {
		st.Sessions = s.sessions.Stats()
	}
	if s.streams != nil {
		st.Streams = s.streams.Stats()
	}
	st.Jobs = JobStats{
		Started:   s.started.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Cancelled: s.cancelled.Load(),
		Coalesced: s.coalesced.Load(),
		Panicked:  s.panicked.Load(),
	}
	if s.pipe != nil {
		st.Pipeline = s.pipe.Stats()
	}
	st.Pipeline.Runs = s.pipelineRuns.Load()
	if s.store != nil {
		st.Disk = s.store.stats()
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		switch j.state {
		case StateRunning:
			st.Jobs.Running++
		case StateQueued:
			st.Jobs.Queued++
		}
	}
	s.mu.Unlock()
	return st
}

// lookup returns the request's result-cache key, "" when its config is not
// cacheable, and its cached result when there is one. It is the one
// lookup /stats counts as a hit or a miss.
func (s *Service) lookup(req *Request) (key string, res *JobResult, ok bool) {
	if !Cacheable(req.Config) {
		return "", nil, false
	}
	key = requestKey(req.logDigest(), req.Constraints, req.Config)
	if res, ok = s.cache.get(key); ok {
		s.cacheHits.Add(1)
	} else {
		s.cacheMisses.Add(1)
	}
	return key, res, ok
}

func validate(req Request) error {
	// A digest-bearing lazy request is valid without a parsed Index: the
	// wire-digest memo only learns uploads that passed this check parsed,
	// so the lazy path cannot smuggle in an empty log.
	lazy := req.Index == nil && req.digest != "" && req.loadIndex != nil
	if !lazy && (req.Index == nil || req.Index.NumTraces() == 0) {
		return fmt.Errorf("%w: empty log", ErrInvalidRequest)
	}
	if req.Constraints == nil {
		return fmt.Errorf("%w: nil constraint set", ErrInvalidRequest)
	}
	return nil
}

// startOrJoin finds an identical in-flight job to share or starts a new
// one. detached marks asynchronous submissions, which are never cancelled
// by waiter departure. Returns ErrBusy when the waiting queue is full —
// coalescing joins are exempt, as they add no queued work. A non-nil
// cached return means an identical job finished between the caller's
// lock-free cache check and this locked one; no job was started.
func (s *Service) startOrJoin(key string, req *Request, detached bool) (job *Job, joined bool, cached *JobResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, nil, ErrClosed
	}
	if key != "" {
		if j, ok := s.inflight[key]; ok {
			s.coalesced.Add(1)
			if detached {
				j.detached = true
			} else {
				j.waiters++
			}
			return j, true, nil, nil
		}
		// finish() publishes to the cache and drops the inflight entry
		// under this same lock, so recheck before paying for a fresh run.
		// Uncounted: lookup already counted this request's miss.
		if res, ok := s.cache.get(key); ok {
			return nil, false, res, nil
		}
	}
	if err := s.queueLocked(); err != nil {
		return nil, false, nil, err
	}
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	job = &Job{
		id:       fmt.Sprintf("%sjob-%d", s.opts.JobIDPrefix, s.nextID),
		key:      key,
		tag:      req.Tag,
		state:    StateQueued,
		created:  time.Now(),
		detached: detached,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	if !detached {
		job.waiters = 1
	}
	s.retainLocked(job)
	if key != "" {
		s.inflight[key] = job
	}
	s.started.Add(1)
	go s.run(ctx, job, *req)
	return job, false, nil, nil
}

// queueLocked admits one run to the queue of runs waiting for a
// concurrency slot, the queue Busy reports on. Beyond maxQueued waiting
// runs it fails with ErrBusy: each of them pins its upload, and its parsed
// index too unless the wire memo knew the upload. An admitted run is
// active until its caller calls s.active.Done. Requires s.mu.
func (s *Service) queueLocked() error {
	if s.queued >= s.maxQueued {
		return fmt.Errorf("%w: %d jobs waiting (max %d)", ErrBusy, s.queued, s.maxQueued)
	}
	s.queued++
	s.active.Add(1)
	return nil
}

// acquire waits for one of the MaxConcurrent run slots and returns the
// function that frees it; it fails only when ctx ends first. A queued run,
// one that queueLocked admitted, leaves the queue when acquire returns,
// with or without the slot. A stream regroup waits unqueued: it belongs to
// a stream that is already open, and is never shed.
func (s *Service) acquire(ctx context.Context, queued bool) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		release = func() { <-s.sem }
	case <-ctx.Done():
		err = ctx.Err()
	}
	if queued {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
	}
	return release, err
}

// runContext derives the context of a run that its caller waits for: it
// ends when ctx does or when the service closes.
func (s *Service) runContext(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// run executes one job: wait for a concurrency slot, run the pipeline under
// the job context, publish the outcome.
func (s *Service) run(ctx context.Context, job *Job, req Request) {
	defer s.active.Done()
	release, err := s.acquire(ctx, true)
	if err != nil {
		s.finish(job, nil, fmt.Errorf("service: %w", err))
		return
	}
	defer release()

	s.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	s.mu.Unlock()

	res, err := s.solveRecovered(ctx, req)
	s.finish(job, res, err)
}

// solveRecovered is solve with a panic turned into the job's error. A job
// goroutine has no caller to recover for it, so a panic in the lazy parser
// or the solver would otherwise take the whole process down.
func (s *Service) solveRecovered(ctx context.Context, req Request) (res *JobResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panicked.Add(1)
			fmt.Fprintf(os.Stderr, "service: job panicked: %v\n%s", p, debug.Stack())
			res, err = nil, fmt.Errorf("service: job panicked: %v", p)
		}
	}()
	return s.solve(ctx, req, true)
}

// solve is the one solve path of jobs, pipeline abstract stages and stream
// regroups. It runs on the live session of the request's log when the
// session cache holds one, and with admit it adds the session it builds
// otherwise; a stream regroup does not, as its windows are almost always
// new logs that would churn the LRU. A session whose distance memo outgrows
// sessionMemoLimit is retired after the solve, so a hot log on a
// long-running server cannot accumulate memory without end; the next
// request on the log builds a fresh one. Session reuse never changes the
// result, only the constraint-independent work a run pays for, so it is
// safe for cacheable and non-cacheable requests alike.
func (s *Service) solve(ctx context.Context, req Request, admit bool) (*JobResult, error) {
	cfg := req.Config
	if cfg.Workers == 0 && s.opts.DefaultWorkers > 0 {
		cfg.Workers = s.opts.DefaultWorkers
	}
	sess, err := s.session(&req, admit)
	if err != nil {
		return nil, err
	}
	res, abstracted, err := sess.SolveIndex(ctx, req.Constraints, cfg)
	if s.sessions != nil && sess.MemoSize() > s.sessionMemoLimit {
		s.sessions.drop(req.logDigest(), sess)
	}
	if err != nil {
		return nil, err
	}
	return newJobResult(res, abstracted), nil
}

// session returns the session a solve of req runs on: the live one for its
// log, or with admit one the session cache builds and keeps, or else a
// fresh one of its own.
func (s *Service) session(req *Request, admit bool) (*core.Session, error) {
	if s.sessions != nil && admit {
		return s.sessions.getOrCreate(req.logDigest(), req.index)
	}
	if sess, ok := s.peekSession(req.logDigest()); ok {
		return sess, nil
	}
	x, err := req.index()
	if err != nil {
		return nil, err
	}
	return core.NewSessionFromIndex(x)
}

// peekSession returns a live session for the digest when one exists,
// without admitting a new entry on miss.
func (s *Service) peekSession(digest string) (*core.Session, bool) {
	if s.sessions == nil {
		return nil, false
	}
	return s.sessions.peek(digest)
}

// finish publishes a job outcome, fills the cache, and wakes waiters.
func (s *Service) finish(job *Job, res *JobResult, err error) {
	s.mu.Lock()
	job.ended = time.Now()
	job.result = res
	job.err = err
	switch {
	case err == nil:
		job.state = StateDone
		s.completed.Add(1)
		if job.key != "" {
			s.publish(job.key, res)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		job.state = StateCancelled
		s.cancelled.Add(1)
	default:
		job.state = StateFailed
		s.failed.Add(1)
	}
	s.dropInflightLocked(job)
	s.evictResultsLocked()
	s.mu.Unlock()
	job.cancel() // release the context's resources
	close(job.done)
}

// publish puts a solved result in the result cache and writes it through
// to the warm tier (feasible results only; saveResultAsync screens). The
// write is asynchronous: disk IO has no business under s.mu or on a run's
// critical path.
func (s *Service) publish(key string, res *JobResult) {
	s.cache.put(key, res)
	if s.store != nil {
		s.store.saveResultAsync(key, res)
	}
}

// evictResultsLocked drops the full results of all but the newest
// maxRetainedResults finished jobs, bounding the memory pinned by retained
// abstracted logs. Jobs with waiters still between the done signal and
// their locked result read are spared — they release their ref in wait().
// Requires s.mu.
func (s *Service) evictResultsLocked() {
	withResult := 0
	for i := len(s.jobOrder) - 1; i >= 0; i-- {
		job, ok := s.jobs[s.jobOrder[i]]
		if !ok || job.result == nil || job.waiters > 0 || job.cacheBacked {
			continue
		}
		withResult++
		if withResult > s.maxRetainedResults {
			job.result = nil
			job.resultEvicted = true
		}
	}
}

// wait blocks until the job finishes or ctx is cancelled; a departing last
// waiter cancels the job itself.
func (s *Service) wait(ctx context.Context, job *Job) (*JobResult, error) {
	select {
	case <-job.done:
		// Copy the result and release the waiter ref under one lock:
		// evictResultsLocked spares jobs with live waiters, so the result
		// cannot be nilled between the job finishing and this read.
		s.mu.Lock()
		res, err := job.result, job.err
		job.waiters--
		s.mu.Unlock()
		return res, err
	case <-ctx.Done():
		s.mu.Lock()
		job.waiters--
		abandon := job.waiters <= 0 && !job.detached
		if abandon {
			// Unregister before cancelling: the pipeline takes up to a
			// sampling interval to observe the cancellation, and a new
			// identical request arriving in that window must start a fresh
			// run, not join the doomed one.
			s.dropInflightLocked(job)
		}
		s.mu.Unlock()
		if abandon {
			job.cancel()
		}
		return nil, fmt.Errorf("service: request abandoned: %w", ctx.Err())
	}
}

// adoptCached registers a pre-completed job backed by a cache hit.
func (s *Service) adoptCached(key, tag string, res *JobResult) JobSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	now := time.Now()
	job := &Job{
		id:          fmt.Sprintf("%sjob-%d", s.opts.JobIDPrefix, s.nextID),
		key:         key,
		tag:         tag,
		state:       StateDone,
		result:      res,
		cacheBacked: true,
		created:     now,
		started:     now,
		ended:       now,
		cancel:      func() {},
		done:        make(chan struct{}),
	}
	close(job.done)
	s.retainLocked(job)
	s.evictResultsLocked()
	return job.snapshotLocked()
}

// retainLocked records the job and drops the oldest finished jobs beyond
// the retention bound. Requires s.mu.
func (s *Service) retainLocked(job *Job) {
	s.jobs[job.id] = job
	s.jobOrder = append(s.jobOrder, job.id)
	for len(s.jobs) > maxRetainedJobs {
		dropped := false
		for i, id := range s.jobOrder {
			j, ok := s.jobs[id]
			if !ok {
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				dropped = true
				break
			}
			if j.state == StateDone || j.state == StateFailed || j.state == StateCancelled {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			break // everything live; let the map grow past the bound
		}
	}
}

func (j *Job) snapshotLocked() JobSnapshot {
	return JobSnapshot{
		ID:            j.id,
		Tag:           j.tag,
		State:         j.state,
		Result:        j.result,
		ResultEvicted: j.resultEvicted,
		Err:           j.err,
		Created:       j.created,
		Started:       j.started,
		Ended:         j.ended,
		Coalesce:      j.waiters,
	}
}
