package experiments

import (
	"context"
	"time"

	"gecco/internal/baselines"
	"gecco/internal/candidates"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/discovery"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/metrics"
)

// Options tunes the harness; zero values pick defaults sized for a laptop
// run (each abstraction problem gets a bounded candidate budget, mirroring
// the paper's 5-hour timeout after which GECCO continues with the
// candidates found so far).
type Options struct {
	MaxChecks     int           // candidate budget per problem (default 30000)
	SolverTimeout time.Duration // Step 2 cap per problem (default 10s)
	Workers       int           // worker threads per problem (<= 0 = all cores)
	Logs          []*eventlog.Log
}

// config is the solver configuration of one problem in the given mode.
func (o Options) config(mode core.Mode) core.Config {
	return core.Config{
		Mode:          mode,
		Workers:       o.Workers,
		Budget:        candidates.Budget{MaxChecks: o.MaxChecks},
		SolverTimeout: o.SolverTimeout,
	}
}

func (o Options) withDefaults() Options {
	if o.MaxChecks == 0 {
		o.MaxChecks = 12000
	}
	if o.SolverTimeout == 0 {
		o.SolverTimeout = 3 * time.Second
	}
	return o
}

// sessionBuildFailure is the score for a problem whose log the pipeline
// could not analyse at all: applicable but unsolved, so failing logs count
// against the solved rate instead of silently vanishing from the tables.
func sessionBuildFailure() Measures {
	return Measures{Applicable: true}
}

// Measures are the §VI-A evaluation measures for one abstraction problem.
type Measures struct {
	Applicable bool
	Solved     bool
	SRed       float64 // size reduction 1 - |G|/|C_L|
	CRed       float64 // control-flow complexity reduction
	Sil        float64 // silhouette coefficient
	Seconds    float64 // wall-clock runtime
	Dist       float64 // total distance of the selected grouping (Eq. 1)
}

// evaluate scores a finished run against the original log, reusing the
// session's index for the silhouette and size-reduction measures.
func evaluate(ctx context.Context, sess *core.Session, res *core.Result, elapsed time.Duration) Measures {
	m := Measures{Applicable: true, Seconds: elapsed.Seconds()}
	if res == nil || !res.Feasible {
		return m
	}
	x := sess.Index()
	m.Solved = true
	m.SRed = metrics.SizeReduction(len(res.Grouping.Groups), x.NumClasses())
	// A cancelled scoring pass leaves CRed at zero; the run itself already
	// finished, so the problem still counts as solved.
	if cred, err := metrics.ComplexityReduction(ctx, x, eventlog.NewIndex(res.Abstracted), discovery.Options{}); err == nil {
		m.CRed = cred
	}
	m.Sil = metrics.Silhouette(x, res.Grouping.Groups)
	m.Dist = res.Distance
	return m
}

// RunProblem solves one abstraction problem (log × set × configuration) and
// scores it on a fresh session. Table drivers that sweep many sets and
// configurations over the same log share a session via RunProblemSession
// instead, which is exactly the workload the session engine exists for.
func RunProblem(ctx context.Context, log *eventlog.Log, id SetID, mode core.Mode, opts Options) Measures {
	sess, err := core.NewSession(log)
	if err != nil {
		return sessionBuildFailure()
	}
	return RunProblemSession(ctx, sess, id, mode, opts)
}

// RunProblemSession solves one abstraction problem on an existing session.
// Seconds measures only the constraint-dependent solve — the interactive
// cost a warm session pays — mirroring how the serving layer amortises
// per-log analysis across requests. Cancelling ctx aborts the solve; the
// problem then scores as applicable-but-unsolved, like any failed run.
func RunProblemSession(ctx context.Context, sess *core.Session, id SetID, mode core.Mode, opts Options) Measures {
	opts = opts.withDefaults()
	set, ok := BuildSet(id, sess.Index())
	if !ok {
		return Measures{}
	}
	start := time.Now()
	res, err := sess.Solve(ctx, set, opts.config(mode))
	elapsed := time.Since(start)
	if err != nil {
		return Measures{Applicable: true, Seconds: elapsed.Seconds()}
	}
	return evaluate(ctx, sess, res, elapsed)
}

// sessionPool lazily builds and reuses one session per log, so a table
// driver sweeping constraint sets and configurations pays each log's
// indexing once and shares its distance memo across all problems. The
// one-time session build is *billed to the log's first solved problem*:
// leaving the constraint-independent phase out of the tables' runtimes
// would hide a slower index or DFG build from them.
type sessionPool struct {
	sessions map[*eventlog.Log]*core.Session
	pending  map[*eventlog.Log]time.Duration // build time not yet billed
}

func newSessionPool() *sessionPool {
	return &sessionPool{
		sessions: make(map[*eventlog.Log]*core.Session),
		pending:  make(map[*eventlog.Log]time.Duration),
	}
}

func (p *sessionPool) get(log *eventlog.Log) *core.Session {
	if sess, ok := p.sessions[log]; ok {
		return sess
	}
	t0 := time.Now()
	sess, err := core.NewSession(log)
	if err != nil {
		return nil
	}
	p.sessions[log] = sess
	p.pending[log] += time.Since(t0)
	return sess
}

// run solves the problem on the pool's session for the log, charging any
// unbilled session-build time to the first solved measure.
func (p *sessionPool) run(ctx context.Context, log *eventlog.Log, id SetID, mode core.Mode, opts Options) Measures {
	sess := p.get(log)
	if sess == nil {
		return sessionBuildFailure()
	}
	m := RunProblemSession(ctx, sess, id, mode, opts)
	if m.Solved {
		if pending, ok := p.pending[log]; ok {
			m.Seconds += pending.Seconds()
			delete(p.pending, log)
		}
	}
	return m
}

// aggregate averages measures over applicable problems; SRed/CRed/Sil are
// averaged over solved problems only, as in the paper's tables.
type aggregate struct {
	applicable, solved               int
	sred, cred, sil, secSolved, dist float64
}

func (a *aggregate) add(m Measures) {
	if !m.Applicable {
		return
	}
	a.applicable++
	if !m.Solved {
		return
	}
	a.solved++
	a.sred += m.SRed
	a.cred += m.CRed
	a.sil += m.Sil
	a.secSolved += m.Seconds
	a.dist += m.Dist
}

// Row is an aggregated result row for any of the tables.
type Row struct {
	Label   string
	Solved  float64
	SRed    float64
	CRed    float64
	Sil     float64
	Seconds float64
	Dist    float64 // mean grouping distance over solved problems
	N       int     // applicable problems
}

func (a *aggregate) row(label string) Row {
	r := Row{Label: label, N: a.applicable}
	if a.applicable > 0 {
		r.Solved = float64(a.solved) / float64(a.applicable)
	}
	if a.solved > 0 {
		n := float64(a.solved)
		r.SRed = a.sred / n
		r.CRed = a.cred / n
		r.Sil = a.sil / n
		r.Seconds = a.secSolved / n
		r.Dist = a.dist / n
	}
	return r
}

// Table5 runs the Exh configuration per constraint set (paper Table V).
// All sets on one log share a session, as an interactive user would.
// Cancelling ctx makes the remaining problems score as unsolved.
func Table5(ctx context.Context, opts Options) []Row {
	opts = opts.withDefaults()
	pool := newSessionPool()
	var rows []Row
	for _, id := range AllSets() {
		agg := &aggregate{}
		for _, log := range opts.Logs {
			agg.add(pool.run(ctx, log, id, core.Exhaustive, opts))
		}
		rows = append(rows, agg.row(string(id)))
	}
	return rows
}

// table6Modes are the three configurations of Table VI, in its row order.
var table6Modes = []core.Mode{core.Exhaustive, core.DFGUnbounded, core.DFGBeam}

// Table6 runs the three configurations over the core constraint sets
// (paper Table VI). Sessions are shared per log across sets and
// configurations — Eq. 1 depends on neither, so the distance memo warms up
// over the whole sweep.
func Table6(ctx context.Context, opts Options) []Row {
	opts = opts.withDefaults()
	pool := newSessionPool()
	var rows []Row
	for _, mode := range table6Modes {
		agg := &aggregate{}
		for _, id := range CoreSets() {
			for _, log := range opts.Logs {
				agg.add(pool.run(ctx, log, id, mode, opts))
			}
		}
		rows = append(rows, agg.row(mode.String()))
	}
	return rows
}

// Table7 runs the baseline comparisons (paper Table VII): BL_Q vs DFG∞ on
// BL1–BL3, BL_P vs Exh on BL4, BL_G vs DFGk on A, M, N.
func Table7(ctx context.Context, opts Options) []Row {
	opts = opts.withDefaults()
	pool := newSessionPool()
	var rows []Row

	// BL[1-3]: DFG∞ vs graph querying.
	geccoQ, blq := &aggregate{}, &aggregate{}
	for _, id := range []SetID{SetBL1, SetBL2, SetBL3} {
		for _, log := range opts.Logs {
			geccoQ.add(pool.run(ctx, log, id, core.DFGUnbounded, opts))
			blq.add(runBaselineQ(ctx, pool.get(log), id, opts))
		}
	}
	rows = append(rows, withLabel(geccoQ.row("BL[1-3] DFG∞"), "BL[1-3] DFG∞"))
	rows = append(rows, withLabel(blq.row("BL[1-3] BL_Q"), "BL[1-3] BL_Q"))

	// BL4: Exh vs spectral partitioning.
	geccoP, blp := &aggregate{}, &aggregate{}
	for _, log := range opts.Logs {
		geccoP.add(pool.run(ctx, log, SetBL4, core.Exhaustive, opts))
		blp.add(runBaselineP(ctx, pool.get(log), opts))
	}
	rows = append(rows, withLabel(geccoP.row(""), "BL4 Exh"))
	rows = append(rows, withLabel(blp.row(""), "BL4 BL_P"))

	// A, M, N: DFGk vs greedy.
	geccoG, blg := &aggregate{}, &aggregate{}
	for _, id := range []SetID{SetA, SetM, SetN} {
		for _, log := range opts.Logs {
			geccoG.add(pool.run(ctx, log, id, core.DFGBeam, opts))
			blg.add(runBaselineG(ctx, pool.get(log), id, opts))
		}
	}
	rows = append(rows, withLabel(geccoG.row(""), "A,M,N DFGk"))
	rows = append(rows, withLabel(blg.row(""), "A,M,N BL_G"))
	return rows
}

func withLabel(r Row, label string) Row {
	r.Label = label
	return r
}

// runBaseline times one baseline solver and scores its result the way
// GECCO's rows are scored; a solver error leaves only the time.
func runBaseline(ctx context.Context, sess *core.Session, solve func(ctx context.Context) (*core.Result, error)) Measures {
	start := time.Now()
	res, err := solve(ctx)
	elapsed := time.Since(start)
	if err != nil {
		return Measures{Applicable: true, Seconds: elapsed.Seconds()}
	}
	return evaluate(ctx, sess, res, elapsed)
}

func runBaselineQ(ctx context.Context, sess *core.Session, id SetID, opts Options) Measures {
	if sess == nil {
		return sessionBuildFailure()
	}
	set, ok := BuildSet(id, sess.Index())
	if !ok {
		return Measures{}
	}
	return runBaseline(ctx, sess, func(ctx context.Context) (*core.Result, error) {
		return baselines.BLQ(ctx, sess, set, core.Config{SolverTimeout: opts.SolverTimeout})
	})
}

func runBaselineP(ctx context.Context, sess *core.Session, opts Options) Measures {
	if sess == nil {
		return sessionBuildFailure()
	}
	n := sess.Index().NumClasses() / 2
	if n < 1 {
		n = 1
	}
	return runBaseline(ctx, sess, func(ctx context.Context) (*core.Result, error) {
		return baselines.BLP(ctx, sess.Index(), n, instances.SplitOnRepeat)
	})
}

func runBaselineG(ctx context.Context, sess *core.Session, id SetID, opts Options) Measures {
	if sess == nil {
		return sessionBuildFailure()
	}
	set, ok := BuildSet(id, sess.Index())
	if !ok {
		return Measures{}
	}
	// BL_G cannot enforce grouping constraints; drop them (as the paper
	// notes) so the comparison stays on A/M/N which have none anyway.
	set2 := constraints.NewSet()
	for _, c := range set.Class {
		set2.Add(c)
	}
	for _, c := range set.Instance {
		set2.Add(c)
	}
	return runBaseline(ctx, sess, func(ctx context.Context) (*core.Result, error) {
		return baselines.BLG(ctx, sess.Index(), set2, instances.SplitOnRepeat)
	})
}
