// Pipeline serving: POST /pipeline runs a staged
// filter→suggest→abstract→discover→conform run (internal/pipeline) in the
// service's concurrency slots, queued with /abstract's jobs, and layered on
// three caches — the per-stage state LRU here (keyed by chain keys, so a
// re-run with a changed tail stage adopts every unchanged upstream state),
// the shared result cache + disk tier for the abstract stage, and the
// session LRU for solver state on the (possibly filtered) working log.
package service

import (
	"context"
	"fmt"
	"sync"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/pipeline"
)

// preparePipeline checks a /pipeline request and resolves its stages and
// base state before the run queues for a slot: the log (through the wire
// memo), the constraints, the stage list, and whether the stages can run on
// what the request supplies. Its errors are the client's. On a wire-memo
// hit the base carries only the log's digest and a loader, which the run
// calls in its slot, and only when its first stage misses.
func (s *Service) preparePipeline(format string, env *PipelineHTTPRequest, text *logText) (stages []pipeline.Stage, base *pipeline.State, baseKey string, err error) {
	req := &Request{Tag: format}
	if err := s.openLog(req, text); err != nil {
		return nil, nil, "", err
	}
	set, err := constraints.ParseSet(env.Constraints)
	if err != nil {
		return nil, nil, "", fmt.Errorf("parsing constraints: %w", err)
	}
	req.Constraints = set
	if err := validate(*req); err != nil {
		return nil, nil, "", err
	}
	if stages, err = pipeline.BuildStages(env.Stages); err != nil {
		return nil, nil, "", fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	base = &pipeline.State{IndexKey: req.logDigest(), Load: s.baseLoader(req)}
	if set.Len() > 0 {
		base.Constraints = set
	}
	if err := pipeline.Validate(stages, base); err != nil {
		return nil, nil, "", fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	return stages, base, pipeline.BaseKey(base.IndexKey, set.String()), nil
}

// baseLoader returns the loader of a /pipeline run's base log. It takes a
// live session's index, so that the run's cached states share it instead
// of pinning a second copy, and otherwise the upload's own, parsed at most
// once.
func (s *Service) baseLoader(req *Request) func() (*eventlog.Index, error) {
	return func() (*eventlog.Index, error) {
		if sess, ok := s.peekSession(req.digest); ok {
			return sess.Index(), nil
		}
		return req.index()
	}
}

// runPipeline queues a prepared run for a concurrency slot, in the queue
// /abstract's jobs wait in, and runs its stages there. Cancelling ctx stops
// the run at the next stage boundary or solver sampling point; service
// shutdown cancels it too.
func (s *Service) runPipeline(ctx context.Context, stages []pipeline.Stage, base *pipeline.State, baseKey string) (*pipeline.Result, error) {
	s.mu.Lock()
	err := ErrClosed
	if !s.closed {
		err = s.queueLocked()
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	defer s.active.Done()
	ctx, cancel := s.runContext(ctx)
	defer cancel()
	release, err := s.acquire(ctx, true)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	defer release()

	env := &pipeline.Env{Abstract: s.solveStage}
	if s.pipe != nil {
		env.Cache = s.pipe
	}
	out, err := pipeline.Run(ctx, stages, base, baseKey, env)
	if err != nil {
		return nil, err
	}
	s.pipelineRuns.Add(1)
	return out, nil
}

// solveStage is the pipeline.Env.Abstract hook: an abstract stage is served
// from the result cache and its disk tier when its working log, constraints
// and config were solved before, and otherwise solves as a job does, on
// the session LRU's session for the working log's key.
func (s *Service) solveStage(ctx context.Context, in *pipeline.State, cfg core.Config) (*core.Result, *eventlog.Index, error) {
	req := Request{Index: in.Index, Constraints: in.Constraints, Config: cfg, digest: in.IndexKey}
	key, res, ok := s.lookup(&req)
	if !ok {
		var err error
		if res, err = s.solve(ctx, req, true); err != nil {
			return nil, nil, err
		}
		if key != "" {
			s.publish(key, res)
		}
	}
	return res.coreResult(), res.Abstracted, nil
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
	lru      *lru[string, *pipeline.State]
	counters map[string]*StageCounters
	evicted  int64
}

func newStageCache(capacity int) *stageCache {
	c := &stageCache{counters: make(map[string]*StageCounters)}
	c.lru = newLRU[string](capacity, func(*pipeline.State) { c.evicted++ })
	return c
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
	st, ok := c.lru.get(key)
	if ok {
		ctr.Hits++
	} else {
		ctr.Misses++
	}
	return st, ok
}

// Put implements pipeline.StageCache.
func (c *stageCache) Put(stage, key string, st *pipeline.State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.put(key, st)
}

// Stats snapshots the cache counters.
func (c *stageCache) Stats() PipelineStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := PipelineStats{
		Entries:   c.lru.len(),
		Capacity:  c.lru.cap,
		Evictions: c.evicted,
		Stages:    make(map[string]StageCounters, len(c.counters)),
	}
	for name, ctr := range c.counters {
		st.Stages[name] = *ctr
	}
	return st
}
