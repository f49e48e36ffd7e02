// Command gecco-bench regenerates the paper's evaluation (§VI): Table III
// (log collection), Table V (Exh per constraint set), Table VI (the three
// configurations), Table VII (baselines), and the DOT sources of Figures 1,
// 2, 3 and 8. Measured values print next to the paper's reported numbers.
//
// Usage:
//
//	gecco-bench -table all          # everything (minutes)
//	gecco-bench -table 5 -quick     # Table V on a subset, small budgets
//	gecco-bench -figures -out figs/ # DOT files for the figures
//	gecco-bench -table none -stream-bench
//	                                # online per-arrival cost, flat in window size
//
// CI runs `make bench`, which is a quick Table VI plus the -stream-bench,
// -index-bench and -eval-bench sections. Two of their checks are timings,
// and each fails the run: the online abstractor's per-arrival cost must stay
// flat in the window (at most 3x at W=2000 against W=200), and OpenIndex must
// be at least 5x faster than a cold parse. The exact work behind the rows
// (candidates, constraint checks, screened checks, pruned nodes, Eq. 1
// evaluations, index bytes) is pinned by TestSolverWorkCounters in
// internal/experiments. Wall-clock verdicts come from the paired -compare of
// the benchmark under bench/, which also measures the serving path
// (sessions, /pipeline, the shard router) end to end.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"gecco"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/distance"
	"gecco/internal/eventlog"
	"gecco/internal/experiments"
	"gecco/internal/instances"
	"gecco/internal/procgen"
	"gecco/internal/stream"
	"gecco/internal/xes"
)

func main() {
	var (
		table   = flag.String("table", "all", "which table to run: 3 | 5 | 6 | 7 | all | none")
		figures = flag.Bool("figures", false, "emit Figures 1, 2, 3, 8 as DOT files")
		outDir  = flag.String("out", "figures", "output directory for -figures")
		quick   = flag.Bool("quick", false, "small budgets and a log subset (for CI/smoke)")
		detail  = flag.Bool("detail", false, "print the per-problem breakdown (DFGk) and the solved matrix")
		budget  = flag.Int("budget", 0, "candidate checks per problem (0 = default)")
		timeout = flag.Duration("solver-timeout", 0, "Step 2 limit per problem (0 = default)")
		workers = flag.Int("workers", 0, "worker threads per problem (0 = all cores, 1 = the paper's sequential runs)")
		streams = flag.Bool("stream-bench", false, "measure the online abstractor's per-arrival cost at window sizes 200 and 2000; fails unless the cost is flat in the window (at most 3x)")
		evals   = flag.Bool("eval-bench", false, "measure the solver kernels in isolation: screened HoldsInstance checks/s, exact Eq. 1 distance evals/s on a cold memo, and the beam frontier prune rate of the admissible lower bound")
		indexes = flag.Bool("index-bench", false, "measure the columnar index: build throughput (events/s), estimated bytes/event vs the pointer-heavy *Log, and restart cost (cold parse vs OpenIndex on the persistent file); fails unless OpenIndex is >= 5x faster")
	)
	flag.Parse()

	// One root context for every table run: Ctrl-C aborts the in-flight
	// solve instead of leaving a long Exh sweep running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Println("generating the synthetic log collection (Table III substitutes)...")
	start := time.Now()
	logs := procgen.Collection()
	fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))

	opts := experiments.Options{Logs: logs, MaxChecks: *budget, SolverTimeout: *timeout, Workers: *workers}
	if *quick {
		opts.Logs = experiments.QuickLogs(logs)
		if opts.MaxChecks == 0 {
			opts.MaxChecks = experiments.QuickMaxChecks
		}
		if opts.SolverTimeout == 0 {
			opts.SolverTimeout = 3 * time.Second
		}
	}

	if *table == "3" || *table == "all" {
		experiments.PrintTable3(os.Stdout, logs)
	}
	if *table == "5" || *table == "all" {
		run("Table V — Exh per constraint set", func() {
			experiments.PrintRows(os.Stdout, "Table V", experiments.Table5(ctx, opts), experiments.PaperTable5)
		})
	}
	if *table == "6" || *table == "all" {
		run("Table VI — configurations", func() {
			experiments.PrintRows(os.Stdout, "Table VI", experiments.Table6(ctx, opts), experiments.PaperTable6)
		})
	}
	if *table == "7" || *table == "all" {
		run("Table VII — baselines", func() {
			experiments.PrintRows(os.Stdout, "Table VII", experiments.Table7(ctx, opts), experiments.PaperTable7)
		})
	}
	if *streams {
		exitOn(streamBench(opts))
	}
	if *indexes {
		exitOn(indexBench())
	}
	if *evals {
		exitOn(evalBench(ctx, opts))
	}
	if *detail {
		run("per-problem detail (DFGk)", func() {
			details := experiments.DetailTable(ctx, core.DFGBeam, opts)
			experiments.PrintDetails(os.Stdout, details)
			fmt.Println()
			fmt.Print(experiments.SolvedMatrix(details))
		})
	}
	if *figures {
		exitOn(emitFigures(*outDir))
	}
}

// exitOn ends the run with status 1 when err is set.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gecco-bench:", err)
		os.Exit(1)
	}
}

// streamBench measures the online abstractor's steady-state per-arrival
// cost at two window sizes an order of magnitude apart, on the same trace
// stream. Drift detection is disabled and the refresh cadence pushed out of
// reach so the measurement isolates the arrival path — ring-buffer
// insertion, edge-refcount maintenance, the O(1) drift check, and the
// per-trace rewrite — which must be O(|trace|), independent of the window.
// A per-arrival cost that grows with the window (the pre-incremental
// implementation rescanned the whole window per Push, ~10× here) is an
// error.
func streamBench(opts experiments.Options) error {
	const (
		warmup   = 2000 // fills the larger window before timing starts
		arrivals = 6000 // timed steady-state arrivals, same for both windows
	)
	set := constraints.NewSet(constraints.MustParse("distinct(role) <= 1"))
	traces := procgen.RunningExample(warmup+arrivals, 41).Traces

	fmt.Printf("online abstractor — steady-state per-arrival cost over %d arrivals:\n", arrivals)
	perArrival := make([]float64, 0, 2)
	for _, window := range []int{200, 2000} {
		a := stream.New(set, stream.Config{
			WindowSize:     window,
			RefreshEvery:   1 << 30,
			DriftThreshold: -1, // sentinel: drift detection off
			Pipeline:       core.Config{Mode: core.DFGUnbounded, Workers: opts.Workers},
		})
		for _, tr := range traces[:warmup] {
			if _, err := a.Push(tr); err != nil {
				return fmt.Errorf("stream bench warmup (W=%d): %w", window, err)
			}
		}
		start := time.Now()
		for _, tr := range traces[warmup:] {
			if _, err := a.Push(tr); err != nil {
				return fmt.Errorf("stream bench (W=%d): %w", window, err)
			}
		}
		elapsed := time.Since(start)
		per := elapsed.Seconds() / arrivals
		perArrival = append(perArrival, per)
		fmt.Printf("  W=%-5d %8.2f µs/arrival (%v total, %d regroupings)\n",
			window, per*1e6, elapsed.Round(time.Millisecond), a.Regroupings)
	}
	ratio := perArrival[1] / perArrival[0]
	fmt.Printf("  per-arrival cost ratio W=2000 / W=200: %.2fx (flat within noise expected)\n", ratio)
	// A generous bound: genuine O(|trace|) arrivals stay near 1× with
	// scheduler jitter; the old per-Push window rescan sat near the window
	// ratio (10×).
	if ratio > 3 {
		return fmt.Errorf("per-arrival cost is not flat in the window size: %.2fx at 10x the window", ratio)
	}
	return nil
}

// indexBench measures the columnar event-log core: how fast NewIndex turns
// a parsed *Log into the arena-plus-columns layout (events/second), how
// much smaller that layout is than the pointer-heavy Log it replaces
// (estimated bytes/event, same allocation model on both sides — see
// eventlog.EstimateLogBytes), and what a restart pays per log without and
// with the persistent index. An OpenIndex less than 5x faster than the
// cold parse is an error.
func indexBench() error {
	const reps = 5
	tmp, err := os.MkdirTemp("", "gecco-index-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	fmt.Println("columnar index — build throughput, footprint, and cold start vs open:")
	for _, log := range experiments.IndexLogs() {
		events := log.NumEvents()
		start := time.Now()
		var x *eventlog.Index
		for r := 0; r < reps; r++ {
			x = eventlog.NewIndex(log)
		}
		elapsed := time.Since(start)
		perEvent := float64(x.EstimatedBytes()) / float64(events)
		naivePerEvent := float64(eventlog.EstimateLogBytes(log)) / float64(events)
		evPerSec := float64(reps*events) / elapsed.Seconds()
		fmt.Printf("  %-22s %8.2f Mevents/s build   %6.1f bytes/event (log: %6.1f, %4.1fx smaller)\n",
			log.Name, evPerSec/1e6, perEvent, naivePerEvent, naivePerEvent/perEvent)

		// Cold is what a cache miss runs: one xes.ReadIndexBytes pass from
		// the XES text to the index. Open is eventlog.OpenIndex on the
		// spilled file.
		var xesText bytes.Buffer
		if err := xes.Write(&xesText, log); err != nil {
			return err
		}
		coldStart := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := xes.ReadIndexBytes(xesText.Bytes()); err != nil {
				return err
			}
		}
		cold := time.Since(coldStart)

		var gidx bytes.Buffer
		if err := eventlog.WriteIndex(&gidx, x); err != nil {
			return err
		}
		path := filepath.Join(tmp, log.Name+".gidx")
		if err := os.WriteFile(path, gidx.Bytes(), 0o644); err != nil {
			return err
		}
		openStart := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := eventlog.OpenIndex(path); err != nil {
				return err
			}
		}
		open := time.Since(openStart)

		speedup := cold.Seconds() / open.Seconds()
		fmt.Printf("  %-22s cold %8.2fms (parse)   open %8.2fms   %5.1fx faster\n",
			log.Name, cold.Seconds()*1e3/reps, open.Seconds()*1e3/reps, speedup)
		if speedup < 5 {
			return fmt.Errorf("OpenIndex on %s is only %.1fx faster than a cold parse (%.2fms vs %.2fms per rep); the persistent format must stay >= 5x faster",
				log.Name, speedup, open.Seconds()*1e3/reps, cold.Seconds()*1e3/reps)
		}
	}
	return nil
}

// evalBench times the solver kernels in isolation, the micro-counterpart
// of the Table VI end-to-end rows:
//
//   - HoldsInstance: screened instance-constraint verdicts over every pair
//     and triple of the loan log's classes (checks/s); the screened share
//     prints alongside, since the speedup comes from verdicts decided
//     without materialising instances.
//   - Distance: exact Eq. 1 evaluations on a cold memo over the same groups
//     (evals/s), exercising the streaming variantTerm path.
//   - BeamPrune: a DFG beam run with a tight width, timed end to end, with
//     the frontier nodes the admissible lower bound discharged and the
//     prune rate (pruned / (pruned + exact evals)).
func evalBench(ctx context.Context, opts experiments.Options) error {
	x, set, groups := experiments.KernelProblem()
	fmt.Printf("solver kernels — %d classes, %d pair/triple groups on %s:\n", x.NumClasses(), len(groups), x.Name)
	const reps = 5

	// Screened instance evaluation. A fresh evaluator per rep keeps the
	// counters per-rep comparable; the attribute cache warms on rep one,
	// which is exactly the amortisation a solve run sees.
	attrs := constraints.NewAttrCache(x)
	var ev *constraints.Evaluator
	start := time.Now()
	for r := 0; r < reps; r++ {
		ev = constraints.NewEvaluatorCached(x, set, instances.SplitOnRepeat, attrs)
		for _, g := range groups {
			ev.HoldsInstance(g)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("  HoldsInstance  %10.0f checks/s   (%d/%d verdicts screened without a log pass)\n",
		float64(reps*len(groups))/elapsed.Seconds(), ev.ScreenHits(), len(groups)*len(set.Instance))

	// Exact Eq. 1 on a cold memo: a fresh Calc per rep, so every Group call
	// is a real streaming evaluation rather than a memo hit.
	start = time.Now()
	for r := 0; r < reps; r++ {
		dc := distance.NewCalc(x, instances.SplitOnRepeat)
		for _, g := range groups {
			dc.Group(g)
		}
	}
	fmt.Printf("  Distance       %10.0f evals/s\n", float64(reps*len(groups))/time.Since(start).Seconds())

	// Beam frontier pruning: the session surfaces both counters.
	beamLog, cfg := experiments.BeamProblem(opts)
	sess, err := core.NewSession(beamLog)
	if err != nil {
		return err
	}
	start = time.Now()
	res, err := sess.Solve(ctx, set, cfg)
	if err != nil {
		return fmt.Errorf("eval bench: beam run: %w", err)
	}
	elapsed = time.Since(start)
	exact := sess.Calc(cfg.Policy).Evals()
	rate := float64(res.LBPruned) / float64(res.LBPruned+exact)
	fmt.Printf("  BeamPrune      %10.2fms solve   %d nodes pruned, %d exact evals (%.0f%% of the frontier discharged by bounds)\n",
		elapsed.Seconds()*1e3, res.LBPruned, exact, rate*100)
	return nil
}

func run(title string, fn func()) {
	fmt.Printf("running %s...\n", title)
	start := time.Now()
	fn()
	fmt.Printf("(%s in %v)\n\n", title, time.Since(start).Round(time.Millisecond))
}

func emitFigures(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, dot string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(dot), 0o644)
	}
	// Figure 2: full DFG of the running example.
	running := procgen.RunningExampleTable1()
	if err := write("figure2_running_example_dfg.dot", gecco.DFGDot(running, 1)); err != nil {
		return err
	}
	// Figure 3: DFG after abstraction with the role constraint.
	res, err := gecco.Abstract(running, "distinct(role) <= 1", gecco.Config{Mode: gecco.ModeDFGUnbounded, NamePrefix: "clrk"})
	if err != nil {
		return err
	}
	if err := write("figure3_abstracted_dfg.dot", gecco.DFGDot(res.Abstracted, 1)); err != nil {
		return err
	}
	// Figure 1: 80/20 DFG of the (synthetic) loan log.
	loan := procgen.LoanLog(1000, 17)
	if err := write("figure1_loan_8020_dfg.dot", gecco.DFGDot(loan, 0.8)); err != nil {
		return err
	}
	// Figure 8: 80/20 DFG of the loan log abstracted under the
	// origin-system constraint (§VI-D).
	caseRes, err := gecco.Abstract(loan, "distinct(class.org) <= 1\n|g| <= 8",
		gecco.Config{Mode: gecco.ModeDFGUnbounded, NameByClassAttr: "org"})
	if err != nil {
		return err
	}
	if !caseRes.Feasible {
		return fmt.Errorf("case study infeasible: %s", caseRes.Diagnostics)
	}
	if err := write("figure8_case_study_dfg.dot", gecco.DFGDot(caseRes.Abstracted, 0.8)); err != nil {
		return err
	}
	fmt.Printf("figures written to %s/\n", dir)
	return nil
}
