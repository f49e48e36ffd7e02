// Pipeline serving: RunPipeline executes a staged abstract→discover→conform
// run (internal/pipeline) through the service's concurrency slots, layered
// on three caches — the per-stage state LRU here (keyed by chain keys, so a
// re-run with a changed tail stage adopts every unchanged upstream state),
// the shared result cache + disk tier for the abstract stage, and the
// session LRU for solver state on the (possibly filtered) working log.
package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/pipeline"
)

// PipelineRequest is one staged run: a log in its columnar form, optional
// user constraints, and a stage list (empty = the default
// suggest→abstract→discover→conform).
type PipelineRequest struct {
	Index       *eventlog.Index
	Constraints *constraints.Set // nil or empty lets a suggest stage supply them
	Stages      []pipeline.StageSpec
}

// PipelineOutcome reports a finished run.
type PipelineOutcome struct {
	Stages []pipeline.StageResult
	State  *pipeline.State
}

// RunPipeline executes the request's stages synchronously under a
// concurrency slot (the same pool abstraction jobs run in). Cancelling ctx
// stops the run at the next stage boundary or solver sampling point;
// service shutdown cancels it too.
func (s *Service) RunPipeline(ctx context.Context, req PipelineRequest) (*PipelineOutcome, error) {
	if req.Index == nil || req.Index.NumTraces() == 0 {
		return nil, fmt.Errorf("%w: empty log", ErrInvalidRequest)
	}
	stages, err := pipeline.BuildStages(req.Stages)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	set := req.Constraints
	if set == nil {
		set = constraints.NewSet()
	}
	digest := IndexDigest(req.Index)
	base := &pipeline.State{IndexKey: digest}
	if set.Len() > 0 {
		base.Constraints = set
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.active.Add(1)
	s.mu.Unlock()
	defer s.active.Done()

	// Tie the run to both the caller and the service lifetime.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	select {
	case s.sem <- struct{}{}:
	case <-runCtx.Done():
		return nil, fmt.Errorf("service: %w", runCtx.Err())
	}
	defer func() { <-s.sem }()

	// The working index: a live session's when the log is already known,
	// so that the run's cached states share it instead of pinning a second
	// copy; otherwise the upload's own.
	base.Index = req.Index
	if s.sessions != nil {
		if sess, ok := s.sessions.peek(digest); ok {
			base.Index = sess.Index()
		}
	}

	// Fail fast on an unsatisfiable stage list before burning a slot on
	// partial work; Run re-validates, but this keeps the error a 400.
	if err := pipeline.Validate(stages, base); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}

	env, flush := s.pipelineEnv()
	baseKey := pipeline.BaseKey(digest, canonicalConstraints(set))
	out, err := pipeline.Run(runCtx, stages, base, baseKey, env)
	flush()
	if err != nil {
		return nil, err
	}
	s.pipelineRuns.Add(1)
	return &PipelineOutcome{Stages: out.Stages, State: out.State}, nil
}

// pipelineEnv assembles the engine hooks over the service's caches. The
// returned flush applies the session memo-growth bound to every session the
// run acquired (mirroring solve()'s retirement of overgrown sessions).
func (s *Service) pipelineEnv() (*pipeline.Env, func()) {
	env := &pipeline.Env{}
	if s.pipe != nil {
		env.Cache = s.pipe
	}
	env.LookupAbstract = func(indexKey string, set *constraints.Set, cfg core.Config) (*core.Result, bool) {
		if !Cacheable(cfg) {
			return nil, false
		}
		return s.cache.Get(requestKey(indexKey, set, cfg))
	}
	env.StoreAbstract = func(indexKey string, set *constraints.Set, cfg core.Config, res *core.Result) {
		if !Cacheable(cfg) {
			return
		}
		key := requestKey(indexKey, set, cfg)
		s.cache.Put(key, res)
		if s.store != nil {
			s.store.saveResultAsync(key, res)
		}
	}
	type held struct {
		key  string
		sess *core.Session
	}
	var acquired []held
	if s.sessions != nil {
		env.AcquireSession = func(ctx context.Context, key string, x *eventlog.Index) (*core.Session, error) {
			sess, err := s.sessions.getOrCreate(key, func() (*eventlog.Index, error) { return x, nil })
			if err == nil {
				acquired = append(acquired, held{key, sess})
			}
			return sess, err
		}
	}
	flush := func() {
		for _, h := range acquired {
			if h.sess.MemoSize() > s.opts.SessionMemoLimit {
				s.sessions.drop(h.key, h.sess)
			}
		}
	}
	return env, flush
}

// StageCounters is one stage kind's cache accounting.
type StageCounters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// PipelineStats is the /stats "pipeline" payload: per-stage cache hit/miss
// counters plus the state LRU's occupancy, so cache effectiveness is
// observable without log spelunking.
type PipelineStats struct {
	// Runs counts completed pipeline runs.
	Runs int64 `json:"runs"`
	// Entries/Capacity/Evictions describe the per-stage state LRU.
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Evictions int64 `json:"evictions"`
	// Stages maps stage name → hit/miss counters. A hit means the stage
	// (and, by key chaining, its whole upstream prefix) was served from
	// cache without executing.
	Stages map[string]StageCounters `json:"stages,omitempty"`
}

// stageCache is the per-stage state LRU backing pipeline.StageCache. One
// flat LRU holds every stage kind's states (an abstract state is worth far
// more than a conform state, but both are bounded by the same churn), with
// hit/miss counters kept per stage name for /stats.
type stageCache struct {
	mu       sync.Mutex
	cap      int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	counters map[string]*StageCounters
	evicted  int64
}

type stageItem struct {
	key   string
	state *pipeline.State
}

func newStageCache(capacity int) *stageCache {
	return &stageCache{
		cap:      capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		counters: make(map[string]*StageCounters),
	}
}

func (c *stageCache) counterLocked(stage string) *StageCounters {
	ctr, ok := c.counters[stage]
	if !ok {
		ctr = &StageCounters{}
		c.counters[stage] = ctr
	}
	return ctr
}

// Get implements pipeline.StageCache.
func (c *stageCache) Get(stage, key string) (*pipeline.State, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr := c.counterLocked(stage)
	el, ok := c.entries[key]
	if !ok {
		ctr.Misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	ctr.Hits++
	return el.Value.(*stageItem).state, true
}

// Put implements pipeline.StageCache.
func (c *stageCache) Put(stage, key string, st *pipeline.State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*stageItem).state = st
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&stageItem{key: key, state: st})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*stageItem).key)
		c.evicted++
	}
}

// Stats snapshots the cache counters.
func (c *stageCache) Stats() PipelineStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := PipelineStats{
		Entries:   len(c.entries),
		Capacity:  c.cap,
		Evictions: c.evicted,
		Stages:    make(map[string]StageCounters, len(c.counters)),
	}
	for name, ctr := range c.counters {
		st.Stages[name] = *ctr
	}
	return st
}
