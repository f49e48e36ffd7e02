// Session: the two-phase form of the GECCO pipeline. GECCO's distance
// measure (§IV-B, Eq. 1/2) and all of Step 1's scaffolding — the interned
// log index, the directly-follows graph, class-level attribute extraction,
// instance segmentation — depend only on the log, never on the declared
// constraints. A Session binds to one log and builds those artifacts once;
// Solve then runs only the constraint-dependent Steps 1–3 on top of the
// frozen state, sharing the distance memo (and the attribute-extraction
// memo) across every solve. Interactive constraint exploration — N
// constraint sets on one log — pays the indexing and distance effort once
// instead of N times, while each solve stays byte-identical to a one-shot
// Run with the same inputs.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"gecco/internal/abstraction"
	"gecco/internal/bitset"
	"gecco/internal/candidates"
	"gecco/internal/constraints"
	"gecco/internal/cover"
	"gecco/internal/dfg"
	"gecco/internal/distance"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/par"
)

// Session holds the constraint-independent analysis state of one log. It is
// safe for concurrent use: concurrent Solve calls share the memoised
// artifacts behind sharded locks, and because every memoised value is a
// deterministic function of the log alone, sharing never changes results —
// only how often they are recomputed.
//
// A Session does not retain the *Log it was built from: the columnar Index
// is self-contained (class arena, attribute columns, trace ids and
// attributes), so once NewSession returns, the pointer-heavy parsed log is
// garbage-collectable — which is what keeps the serving layer's session and
// stream LRUs small. Solves add nothing to what a Session holds: an
// infeasible one hands back the session's own Index, and the *Log that
// Solve returns belongs to its caller.
type Session struct {
	x     *eventlog.Index
	graph *dfg.Graph
	attrs *constraints.AttrCache

	// calcs holds one distance calculator per instance policy (Eq. 1 depends
	// on how trace projections are segmented); each memo persists for the
	// session's lifetime and is shared across all solves under that policy.
	mu    sync.Mutex
	calcs map[instances.Policy]*distance.Calc

	// indexBytes is the index footprint, computed once at construction so
	// EstimatedBytes is O(1) — /stats polls it for every live session.
	indexBytes int64
}

// NewSession indexes the log and builds its DFG — the expensive
// constraint-independent phase. The session keeps no reference to the log;
// callers may release it once NewSession returns.
func NewSession(log *eventlog.Log) (*Session, error) {
	if len(log.Traces) == 0 {
		return nil, fmt.Errorf("core: empty log")
	}
	return NewSessionFromIndex(eventlog.NewIndex(log))
}

// NewSessionFromIndex builds a session directly on a columnar index — the
// entry point for loaders that stream into an eventlog.Builder without ever
// materialising a *Log. The index must not be mutated afterwards.
func NewSessionFromIndex(x *eventlog.Index) (*Session, error) {
	if x.NumTraces() == 0 {
		return nil, fmt.Errorf("core: empty log")
	}
	return &Session{
		x:          x,
		graph:      dfg.Build(x),
		attrs:      constraints.NewAttrCache(x),
		calcs:      make(map[instances.Policy]*distance.Calc),
		indexBytes: x.EstimatedBytes(),
	}, nil
}

// EstimatedBytes reports the approximate heap footprint of the session's
// columnar index (arenas, offset tables, bitsets, attribute columns and
// dictionaries). It is computed once, so this is O(1) — the serving layer
// polls it for /stats.
func (s *Session) EstimatedBytes() int64 { return s.indexBytes }

// Index returns the session's interned view of the log.
func (s *Session) Index() *eventlog.Index { return s.x }

// Calc returns the session's shared distance calculator for the policy,
// creating it on first use. Its memo is warm across solves.
func (s *Session) Calc(policy instances.Policy) *distance.Calc {
	s.mu.Lock()
	defer s.mu.Unlock()
	dc, ok := s.calcs[policy]
	if !ok {
		dc = distance.NewCalc(s.x, policy)
		s.calcs[policy] = dc
	}
	return dc
}

// MemoSize reports the total number of memoised group distances across the
// session's calculators. The memos grow with every distinct candidate group
// ever costed and are never evicted — that is what keeps solves cheap — so
// a holder keeping sessions alive indefinitely (the serving layer's session
// cache) uses this to retire sessions whose memos have grown past a bound.
func (s *Session) MemoSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, dc := range s.calcs {
		n += dc.MemoLen()
	}
	return n
}

// Solve runs the constraint-dependent pipeline — Step 1 candidate
// computation, Step 2 optimal grouping, Step 3 abstraction — on the frozen
// session artifacts. Results are byte-identical to RunContext on the same
// inputs: the shared memos only ever return values a fresh run would have
// computed. Per-solve accounting (ConstraintChecks, timings) starts from
// zero on every call. Result.Abstracted is a *Log the caller owns: the
// abstracted log, or on an infeasible solve a copy of the input log
// materialised from the index.
func (s *Session) Solve(ctx context.Context, set *constraints.Set, cfg Config) (*Result, error) {
	res, abstracted, err := s.SolveIndex(ctx, set, cfg)
	if err != nil {
		return nil, err
	}
	if abstracted != nil {
		res.Abstracted = abstracted.ReconstructLog()
	}
	return res, nil
}

// SolveIndex is Solve for holders that keep logs in their columnar form: it
// builds no *Log, so Result.Abstracted stays nil. The abstracted log comes
// back as an Index instead — the one Step 3 built when the solve is
// feasible, the session's own when it is not (the paper's §V-C: infeasible
// runs return the original log), and nil under GroupingOnly.
func (s *Session) SolveIndex(ctx context.Context, set *constraints.Set, cfg Config) (*Result, *eventlog.Index, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	x, graph := s.x, s.graph
	workers := par.Workers(cfg.Workers)
	ev := constraints.NewEvaluatorCached(x, set, cfg.Policy, s.attrs)
	dc := s.Calc(cfg.Policy)
	// The calc is session-shared; snapshot its prune counter so the Result
	// reports this solve's contribution only.
	prunedBefore := dc.LBPruned()

	// Step 1: candidate computation.
	t0 := time.Now()
	var cr candidates.Result
	if cfg.CustomCandidates != nil {
		groups, err := cfg.CustomCandidates(x, graph)
		if err != nil {
			return nil, nil, fmt.Errorf("core: custom candidates: %w", err)
		}
		cr = candidates.Result{Groups: groups}
	} else {
		switch cfg.Mode {
		case Exhaustive:
			cr = candidates.ExhaustiveCtx(ctx, x, ev, cfg.Budget, workers)
		case DFGUnbounded:
			cr = candidates.DFGBasedCtx(ctx, x, ev, dc, graph, -1, cfg.Budget, workers)
		case DFGBeam:
			k := cfg.BeamWidth
			if k <= 0 {
				k = 5 * x.NumClasses()
			}
			cr = candidates.DFGBasedCtx(ctx, x, ev, dc, graph, k, cfg.Budget, workers)
		default:
			return nil, nil, fmt.Errorf("core: unknown mode %d", cfg.Mode)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: candidates: %w", err)
	}
	groups := cr.Groups
	if !cfg.SkipExclusiveMerge && cfg.CustomCandidates == nil {
		groups = candidates.ExclusiveMerge(x, ev, graph, groups)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: candidates: %w", err)
	}
	candTime := time.Since(t0)

	// Step 2: optimal grouping. The candidate costs (Eq. 1 per group) are
	// the distance hot path: evaluate them across the worker pool; the memo
	// guarantees exactly-once evaluation, so the costs vector is identical
	// for any worker count.
	t1 := time.Now()
	costs := make([]float64, len(groups))
	par.For(workers, len(groups), func(i int) {
		costs[i] = dc.Group(groups[i])
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: costs: %w", err)
	}
	minG, maxG := set.GroupBounds()
	prob := &cover.Problem{
		NumClasses: x.NumClasses(),
		Candidates: groups,
		Costs:      costs,
		MinGroups:  minG,
		MaxGroups:  maxG,
	}
	// Each solve gets its own SolverTimeout: the solvers stop at the
	// deadline of the context they are given and keep their incumbent, and
	// only the caller's own context turns into an error below.
	solveOnce := func() (cover.Result, error) {
		if err := ctx.Err(); err != nil {
			return cover.Result{}, fmt.Errorf("core: solve: %w", err)
		}
		sctx := ctx
		if cfg.SolverTimeout > 0 {
			var cancel context.CancelFunc
			sctx, cancel = context.WithTimeout(ctx, cfg.SolverTimeout)
			defer cancel()
		}
		switch cfg.Solver {
		case SolverBB:
			return cover.SolveBBCtx(sctx, prob), nil
		case SolverMIP:
			r, _ := cover.SolveMIPCtx(sctx, prob)
			return r, nil
		default:
			return cover.Result{}, fmt.Errorf("core: unknown solver %d", cfg.Solver)
		}
	}
	res, err := solveOnce()
	if err != nil {
		return nil, nil, err
	}
	// Verification pass: the paper's monotonic pruning admits supergroups
	// of satisfying groups without re-validation, which is unsound when a
	// superset gains new instances in previously-vacuous traces. Re-check
	// the selected groups and re-solve without any violating candidate so
	// the returned grouping always genuinely satisfies R.
	// Each round invalidates at least one selected candidate, so the loop
	// terminates; the cap keeps worst-case Step 2 time bounded when a
	// SolverTimeout is set.
	maxRounds := len(groups)
	if cfg.SolverTimeout > 0 && maxRounds > 16 {
		maxRounds = 16
	}
	clean := false
	for round := 0; res.Feasible && round < maxRounds; round++ {
		violating := false
		for _, gi := range res.Selected {
			if !ev.HoldsClass(groups[gi]) || !ev.HoldsInstance(groups[gi]) {
				costs[gi] = math.Inf(1)
				violating = true
			}
		}
		if !violating {
			clean = true
			break
		}
		if res, err = solveOnce(); err != nil {
			return nil, nil, err
		}
	}
	if res.Feasible && !clean {
		// The round cap was hit with violations outstanding: declare the
		// problem unsolved rather than return a constraint-violating
		// grouping. (Requires adversarial candidate sets; not observed in
		// practice.)
		res.Feasible = false
	}
	// Global grouping-instance constraints (§VIII future work, implemented
	// here): enforced by no-good cuts — each violating optimum is excluded
	// and the next-best grouping is sought.
	if len(set.GlobalConstraints()) > 0 {
		for round := 0; res.Feasible && round < 64; round++ {
			sel := make([]bitset.Set, len(res.Selected))
			for i, gi := range res.Selected {
				sel[i] = groups[gi]
			}
			if ev.HoldsGlobal(sel) {
				break
			}
			prob.Forbidden = append(prob.Forbidden, append([]int(nil), res.Selected...))
			if res, err = solveOnce(); err != nil {
				return nil, nil, err
			}
			if round == 63 {
				res.Feasible = false // exhausted the cut budget
			}
		}
	}
	solveTime := time.Since(t1)
	// A solver cut short by cancellation may still report its incumbent as
	// feasible; the caller asked us to stop, so surface the cancellation
	// rather than a half-optimised grouping.
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: solve: %w", err)
	}

	out := &Result{
		NumCandidates:      len(groups),
		CandidatesTimedOut: cr.TimedOut,
		ConstraintChecks:   ev.Checks(),
		ScreenedChecks:     ev.ScreenHits(),
		LBPruned:           dc.LBPruned() - prunedBefore,
		Timings:            Timings{Candidates: candTime, Solve: solveTime},
	}
	if !res.Feasible {
		var abstracted *eventlog.Index
		if !cfg.GroupingOnly {
			// The paper's offline prescription: infeasible runs return the
			// original log, which is the session's own index. Grouping-only
			// callers consume no log at all, and returning none keeps cached
			// window results from pinning window memory.
			abstracted = x
		}
		out.Diagnostics = ev.Diagnose()
		return out, abstracted, nil
	}

	// Step 3: abstraction.
	t2 := time.Now()
	selected := make([]bitset.Set, len(res.Selected))
	for i, gi := range res.Selected {
		selected[i] = groups[gi]
	}
	sortByFirstOccurrence(x, selected)
	names := a.names(cfg, x, selected)
	grouping := abstraction.Grouping{Groups: selected, Names: names}
	var abstracted *eventlog.Index
	if !cfg.GroupingOnly {
		var err error
		if abstracted, err = abstraction.Apply(x, grouping, cfg.Strategy, cfg.Policy); err != nil {
			return nil, nil, fmt.Errorf("core: abstraction: %w", err)
		}
	}
	out.Timings.Abstract = time.Since(t2)
	out.Feasible = true
	out.Grouping = grouping
	out.Distance = res.Cost
	out.SolverNodes = res.Nodes
	out.GroupClasses = make([][]string, len(selected))
	for i, g := range selected {
		out.GroupClasses[i] = x.GroupNames(g)
	}
	return out, abstracted, nil
}
