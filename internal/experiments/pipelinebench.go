// PipelineBench times the staged engine end to end — the workload POST
// /pipeline serves — so the orchestration layer's cost and its stage cache
// are gated alongside the solver kernels.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/pipeline"
	"gecco/internal/procgen"
)

// memStageCache is a minimal pipeline.StageCache for the bench: unbounded,
// single-run, no eviction — it isolates the engine's key-chaining overhead
// from any LRU policy.
type memStageCache map[string]*pipeline.State

func (c memStageCache) Get(stage, key string) (*pipeline.State, bool) {
	st, ok := c[key]
	return st, ok
}

func (c memStageCache) Put(stage, key string, st *pipeline.State) { c[key] = st }

// PipelineBench runs the loan-application case study through the staged
// engine: filter to the dominant variants, abstract under the §VI-D
// origin-system constraint, discover a model of the abstracted log, and
// evaluate conformance. Three rows feed the -json report and the -baseline
// gate:
//
//   - Pipeline/loan-application: the cold end-to-end run (every stage
//     executes), the number a first-time /pipeline request pays.
//   - PipelineWarm/loan-application: the identical run through a stage
//     cache; every stage must be adopted, so this bounds the engine's
//     per-request overhead (key chaining, validation, cache lookups).
//   - PipelineTail/loan-application: the run with only the tail (conform)
//     stage changed; the expensive abstract stage must be adopted from
//     cache, which is the refinement-sweep economy the engine exists for.
//
// Each run's base carries the log as a loader that builds its index, as
// /pipeline's base does, so the cold run pays for the index inside its
// first stage and the warm and tail runs, whose first stage is cached,
// never build it. A warm or tail run that re-executes a cached stage is a
// hard error: it means chain keys stopped committing to the stage prefix
// and the cache silently degraded to a no-op.
func PipelineBench(ctx context.Context, w io.Writer, opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	log := procgen.LoanLog(1000, 17)
	set := constraints.NewSet(
		constraints.MustParse("distinct(class.org) <= 1"),
		constraints.MustParse("|g| <= 8"),
	)
	cfg := core.Config{
		Mode:       core.DFGUnbounded,
		Workers:    opts.Workers,
		NamePrefix: "grp",
	}
	cfg.Budget.MaxChecks = opts.MaxChecks
	stages := func(details bool) []pipeline.Stage {
		return []pipeline.Stage{
			pipeline.FilterStage{TopVariants: 0.9},
			pipeline.AbstractStage{Config: cfg},
			pipeline.DiscoverStage{},
			pipeline.ConformStage{Details: details},
		}
	}
	base := func() *pipeline.State {
		return &pipeline.State{
			Load: func() (*eventlog.Index, error) {
				return eventlog.NewIndex(log), nil
			},
			IndexKey:    "bench/" + log.Name,
			Constraints: set,
		}
	}
	baseKey := pipeline.BaseKey("bench/"+log.Name, set.String())
	cache := make(memStageCache)
	env := &pipeline.Env{Cache: cache}

	fmt.Fprintf(w, "staged pipeline — filter→abstract→discover→conform on %s (%d traces):\n",
		log.Name, len(log.Traces))

	run := func(label string, sts []pipeline.Stage, wantCached int) (Row, error) {
		start := time.Now()
		out, err := pipeline.Run(ctx, sts, base(), baseKey, env)
		elapsed := time.Since(start)
		if err != nil {
			return Row{}, fmt.Errorf("pipeline bench (%s): %w", label, err)
		}
		cached := 0
		for _, st := range out.Stages {
			if st.Cached {
				cached++
			}
		}
		if cached != wantCached {
			return Row{}, fmt.Errorf("pipeline bench (%s): %d/%d stages served from cache, want %d — chain keys no longer commit to the stage prefix",
				label, cached, len(out.Stages), wantCached)
		}
		res := out.State.Abstraction
		if res == nil || !res.Feasible {
			return Row{}, fmt.Errorf("pipeline bench (%s): case-study abstraction infeasible", label)
		}
		if out.State.Conformance == nil {
			return Row{}, fmt.Errorf("pipeline bench (%s): conform stage produced no result", label)
		}
		display := label
		if display == "" {
			display = "Cold"
		}
		fmt.Fprintf(w, "  %-13s %8.2fms   %d/%d stages cached   fitness %.3f, dist %.3f\n",
			display, elapsed.Seconds()*1e3, cached, len(out.Stages),
			out.State.Conformance.Fitness, res.Distance)
		return Row{
			Label:   "Pipeline" + label + "/" + log.Name,
			Seconds: elapsed.Seconds(),
			Solved:  1,
			Dist:    res.Distance,
			N:       len(out.Stages),
		}, nil
	}

	cold, err := run("", stages(false), 0)
	if err != nil {
		return nil, err
	}
	warm, err := run("Warm", stages(false), 4)
	if err != nil {
		return nil, err
	}
	tail, err := run("Tail", stages(true), 3)
	if err != nil {
		return nil, err
	}
	if warm.Seconds > 0 {
		fmt.Fprintf(w, "  cold/warm speedup %.1fx (warm bounds the engine's per-request overhead)\n",
			cold.Seconds/warm.Seconds)
	}
	return []Row{cold, warm, tail}, nil
}
