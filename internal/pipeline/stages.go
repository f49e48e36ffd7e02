// The built-in stages. Each stage's Digest covers exactly its
// result-affecting configuration (Workers-style throughput knobs are
// excluded — results are byte-identical at any worker count), so chain keys
// are stable across processes and restarts.
package pipeline

import (
	"context"
	"fmt"

	"gecco/internal/conformance"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/discovery"
	"gecco/internal/eventlog"
	"gecco/internal/logfilter"
	"gecco/internal/suggest"
)

// FilterStage preprocesses the working log. The configured operations are
// applied in a fixed order (variant filters, class projection, sampling,
// head), each a zero value when unused.
type FilterStage struct {
	// TopVariants keeps the most frequent variants covering this fraction
	// of traces (0 = off).
	TopVariants float64
	// MinVariantCount keeps traces whose variant occurs at least this
	// often (0 = off).
	MinVariantCount int
	// ProjectClasses keeps only events of these classes (empty = off).
	ProjectClasses []string
	// DropClasses removes events of these classes (empty = off).
	DropClasses []string
	// SamplePct keeps each trace with this probability (0 = off),
	// deterministically per SampleSeed.
	SamplePct  float64
	SampleSeed int64
	// Head keeps the first n traces (0 = off).
	Head int
}

func (f FilterStage) Name() string { return "filter" }

func (f FilterStage) Digest() string {
	return fmt.Sprintf("topVariants=%g minVariantCount=%d project=%q drop=%q sample=%g seed=%d head=%d",
		f.TopVariants, f.MinVariantCount, f.ProjectClasses, f.DropClasses, f.SamplePct, f.SampleSeed, f.Head)
}

func (f FilterStage) Needs() []Artifact    { return []Artifact{ArtifactLog} }
func (f FilterStage) Provides() []Artifact { return []Artifact{ArtifactLog} }

func (f FilterStage) Run(ctx context.Context, env *Env, in *State) (*State, error) {
	x := in.Index
	var err error
	if f.TopVariants > 0 {
		if x, err = logfilter.TopVariants(ctx, x, f.TopVariants); err != nil {
			return nil, err
		}
	}
	if f.MinVariantCount > 0 {
		if x, err = logfilter.MinVariantCount(ctx, x, f.MinVariantCount); err != nil {
			return nil, err
		}
	}
	if len(f.ProjectClasses) > 0 {
		if x, err = logfilter.ProjectClasses(ctx, x, f.ProjectClasses); err != nil {
			return nil, err
		}
	}
	if len(f.DropClasses) > 0 {
		if x, err = logfilter.DropClasses(ctx, x, f.DropClasses); err != nil {
			return nil, err
		}
	}
	if f.SamplePct > 0 {
		if x, err = logfilter.Sample(ctx, x, f.SamplePct, f.SampleSeed); err != nil {
			return nil, err
		}
	}
	if f.Head > 0 {
		if x, err = logfilter.Head(ctx, x, f.Head); err != nil {
			return nil, err
		}
	}
	if x.NumTraces() == 0 {
		return nil, fmt.Errorf("filter removed every trace")
	}
	next := *in
	next.Index = x
	// The working log changed content, so downstream session keying must
	// not collide with the unfiltered log's.
	next.IndexKey = DeriveKey(in.IndexKey, f.Name(), f.Digest())
	return &next, nil
}

// SuggestStage emits constraints when the request supplied none (§VIII):
// the log is profiled, suggestions are ranked, and the top suggestions at
// or above the singleton-pass floor become the active constraint set. When
// constraints are already present the stage is a pass-through, so a
// pipeline spec can always include it.
type SuggestStage struct {
	// Top is the maximum number of suggestions adopted (0 = default 3).
	Top int
	// MinPass is the singleton-pass floor a suggestion must reach to be
	// adopted (0 = default 1.0, i.e. only constraints that cannot be
	// individually infeasible).
	MinPass float64
}

func (s SuggestStage) withDefaults() SuggestStage {
	if s.Top == 0 {
		s.Top = 3
	}
	if s.MinPass == 0 {
		s.MinPass = 1.0
	}
	return s
}

func (s SuggestStage) Name() string { return "suggest" }

func (s SuggestStage) Digest() string {
	s = s.withDefaults()
	return fmt.Sprintf("top=%d minPass=%g", s.Top, s.MinPass)
}

func (s SuggestStage) Needs() []Artifact    { return []Artifact{ArtifactLog} }
func (s SuggestStage) Provides() []Artifact { return []Artifact{ArtifactConstraints} }

func (s SuggestStage) Run(ctx context.Context, env *Env, in *State) (*State, error) {
	if in.has(ArtifactConstraints) {
		return in, nil
	}
	s = s.withDefaults()
	sugs, err := suggest.Suggest(ctx, in.Index)
	if err != nil {
		return nil, err
	}
	set := constraints.NewSet()
	for _, sg := range sugs {
		if set.Len() >= s.Top {
			break
		}
		if sg.SingletonPass >= s.MinPass {
			set.Add(sg.Constraint)
		}
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("suggest found no constraint passing minPass=%g (the log may carry no usable attributes); supply constraints explicitly", s.MinPass)
	}
	next := *in
	next.Suggestions = sugs
	next.Constraints = set
	return &next, nil
}

// AbstractStage wraps core.Session.SolveIndex: the working log is abstracted
// under the active constraints, through Env.Abstract when the host provides
// one (the service's result cache, disk tier and session LRU). Time-budget
// knobs are deliberately absent: every abstract stage is deterministic and
// therefore cacheable.
type AbstractStage struct {
	Config core.Config
}

func (a AbstractStage) cfg() core.Config {
	cfg := a.Config
	// Result caching and key chaining assume determinism; scrub the
	// fields that would break it (Parse never sets them, this guards
	// direct construction).
	cfg.SolverTimeout = 0
	cfg.CustomCandidates = nil
	cfg.GroupingOnly = false
	return cfg
}

func (a AbstractStage) Name() string { return "abstract" }

func (a AbstractStage) Digest() string {
	cfg := a.cfg()
	return fmt.Sprintf("mode=%d beam=%d strategy=%d policy=%d maxchecks=%d solver=%d skipmerge=%t prefix=%q byattr=%q",
		cfg.Mode, cfg.BeamWidth, cfg.Strategy, cfg.Policy, cfg.Budget.MaxChecks,
		cfg.Solver, cfg.SkipExclusiveMerge, cfg.NamePrefix, cfg.NameByClassAttr)
}

func (a AbstractStage) Needs() []Artifact {
	return []Artifact{ArtifactLog, ArtifactConstraints}
}
func (a AbstractStage) Provides() []Artifact { return []Artifact{ArtifactAbstraction} }

func (a AbstractStage) Run(ctx context.Context, env *Env, in *State) (*State, error) {
	solve := env.Abstract
	if solve == nil {
		solve = solveFresh
	}
	res, abstracted, err := solve(ctx, in, a.cfg())
	if err != nil {
		return nil, err
	}
	next := *in
	next.Abstraction = res
	next.Abstracted = abstracted
	if !res.Feasible {
		// Infeasible: the abstracted log is the input log (§V-C). The
		// state's own index is that log, and aliasing it keeps the state
		// from pinning the solver session's copy beside it.
		next.Abstracted = in.Index
	}
	return &next, nil
}

// solveFresh is the abstract stage's solve without a host: a fresh session
// on the working log.
func solveFresh(ctx context.Context, in *State, cfg core.Config) (*core.Result, *eventlog.Index, error) {
	sess, err := core.NewSessionFromIndex(in.Index)
	if err != nil {
		return nil, nil, err
	}
	return sess.SolveIndex(ctx, in.Constraints, cfg)
}

// DiscoverStage mines a process model from the abstracted log (or the
// working log when no abstract stage ran).
type DiscoverStage struct {
	// EdgeFilter and Epsilon are discovery.Options; zero values select the
	// defaults there.
	EdgeFilter float64
	Epsilon    float64
}

func (d DiscoverStage) Name() string { return "discover" }

func (d DiscoverStage) Digest() string {
	return fmt.Sprintf("edgeFilter=%g epsilon=%g", d.EdgeFilter, d.Epsilon)
}

func (d DiscoverStage) Needs() []Artifact    { return []Artifact{ArtifactLog} }
func (d DiscoverStage) Provides() []Artifact { return []Artifact{ArtifactModel} }

func (d DiscoverStage) Run(ctx context.Context, env *Env, in *State) (*State, error) {
	m, err := discovery.Discover(ctx, in.View(), discovery.Options{EdgeFilter: d.EdgeFilter, Epsilon: d.Epsilon})
	if err != nil {
		return nil, err
	}
	next := *in
	next.Model = m
	return &next, nil
}

// ConformStage evaluates the abstracted log against the discovered model.
type ConformStage struct {
	// Details additionally reports the observed transitions the model
	// disallows (conformance.Result.Misfits).
	Details bool
}

func (c ConformStage) Name() string { return "conform" }

func (c ConformStage) Digest() string { return fmt.Sprintf("details=%t", c.Details) }

func (c ConformStage) Needs() []Artifact {
	return []Artifact{ArtifactLog, ArtifactModel}
}
func (c ConformStage) Provides() []Artifact { return []Artifact{ArtifactConformance} }

func (c ConformStage) Run(ctx context.Context, env *Env, in *State) (*State, error) {
	res, err := conformance.Evaluate(ctx, in.View(), in.Model, conformance.Options{Details: c.Details})
	if err != nil {
		return nil, err
	}
	next := *in
	next.Conformance = &res
	return &next, nil
}
