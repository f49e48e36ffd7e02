// Command gecco abstracts an event log under user constraints.
//
// Usage:
//
//	gecco -log events.xes -constraints rules.txt -out abstracted.xes
//	gecco -log events.csv -constraint 'distinct(role) <= 1' -mode dfg -dot out.dot
//	gecco -log events.xes -sweep alternatives.txt
//
// The constraint file holds one constraint per line ('#' comments allowed);
// -constraint adds single constraints on the command line (repeatable).
// Output formats follow the file extensions (.xes or .csv).
//
// -sweep explores several constraint sets interactively: the sweep file
// holds multiple sets separated by lines containing only "---", and all of
// them are solved on one session — the log is indexed once and the distance
// memo stays warm across sets — printing a per-set comparison instead of a
// single grouping. Constraints given via -constraints/-constraint are
// prepended to every set as a shared base.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gecco"
	"gecco/internal/candidates"
	"gecco/internal/eventlog"
	"gecco/internal/pipeline"
	"gecco/internal/service"
)

type constraintList []string

func (c *constraintList) String() string { return strings.Join(*c, "; ") }

func (c *constraintList) Set(v string) error {
	*c = append(*c, v)
	return nil
}

func main() {
	var (
		logPath     = flag.String("log", "", "input event log (.xes or .csv)")
		consFile    = flag.String("constraints", "", "file with one constraint per line")
		outPath     = flag.String("out", "", "output path for the abstracted log (.xes or .csv)")
		dotPath     = flag.String("dot", "", "write the abstracted log's DFG as Graphviz DOT")
		dotFrac     = flag.Float64("dotfrac", 0.8, "edge-frequency fraction for the DOT view (1 = all edges)")
		mode        = flag.String("mode", "dfg", "candidate computation: exh | dfg | beam")
		beamWidth   = flag.Int("k", 0, "beam width for -mode beam (0 = 5*|classes|)")
		strategy    = flag.String("strategy", "complete", "abstraction strategy: complete | startcomplete")
		maxChecks   = flag.Int("budget", 0, "max candidate checks (0 = unlimited)")
		workers     = flag.Int("workers", 0, "worker threads for candidate and distance evaluation (0 = all cores)")
		solverLimit = flag.Duration("solver-timeout", 30*time.Second, "Step 2 time limit")
		nameAttr    = flag.String("name-attr", "", "prefix activity names by this class attribute (e.g. org)")
		useMIP      = flag.Bool("mip", false, "use the MIP formulation for Step 2 instead of branch and bound")
		quiet       = flag.Bool("q", false, "suppress the grouping report")
		suggestOnly = flag.Bool("suggest", false, "profile the log and print constraint suggestions, then exit")
		sweepFile   = flag.String("sweep", "", "file with constraint sets separated by '---' lines; solve all on one session and compare")
		pipelineArg = flag.String("pipeline", "", "run a staged pipeline: 'default' or a JSON stage-list file (stages: filter, suggest, abstract, discover, conform)")
	)
	var extra constraintList
	flag.Var(&extra, "constraint", "single constraint (repeatable)")
	flag.Parse()

	if *logPath == "" {
		fmt.Fprintln(os.Stderr, "gecco: -log is required")
		flag.Usage()
		os.Exit(2)
	}
	log, err := readLog(*logPath)
	fatal(err)

	if *suggestOnly {
		fmt.Println("suggested constraints (singleton pass rate | constraint | rationale):")
		for _, s := range gecco.SuggestConstraints(log) {
			fmt.Printf("  %5.0f%%  %-34s  # %s\n", 100*s.SingletonPass, s.Constraint, s.Rationale)
		}
		return
	}

	text := ""
	if *consFile != "" {
		b, err := os.ReadFile(*consFile)
		fatal(err)
		text = string(b)
	}
	for _, c := range extra {
		text += "\n" + c
	}
	set, err := gecco.ParseConstraints(text)
	fatal(err)
	if set.Len() == 0 && *sweepFile == "" {
		fmt.Fprintln(os.Stderr, "gecco: warning: no constraints given; distance alone drives the grouping")
	}

	cfg := gecco.Config{
		BeamWidth:       *beamWidth,
		Workers:         *workers,
		Budget:          candidates.Budget{MaxChecks: *maxChecks},
		SolverTimeout:   *solverLimit,
		NameByClassAttr: *nameAttr,
	}
	switch *mode {
	case "exh":
		cfg.Mode = gecco.ModeExhaustive
	case "dfg":
		cfg.Mode = gecco.ModeDFGUnbounded
	case "beam":
		cfg.Mode = gecco.ModeDFGBeam
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}
	switch *strategy {
	case "complete":
		cfg.Strategy = gecco.StrategyCompletionOnly
	case "startcomplete":
		cfg.Strategy = gecco.StrategyStartComplete
	default:
		fatal(fmt.Errorf("unknown -strategy %q", *strategy))
	}
	if *useMIP {
		cfg.Solver = gecco.SolverMIP
	}

	if *pipelineArg != "" {
		fatal(runPipeline(log, *pipelineArg, set, *outPath))
		return
	}

	if *sweepFile != "" {
		fatal(runSweep(log, *sweepFile, text, cfg))
		return
	}

	res, err := gecco.AbstractSet(log, set, cfg)
	fatal(err)

	if !res.Feasible {
		fmt.Fprintf(os.Stderr, "gecco: no grouping satisfies the constraints: %s\n", res.Diagnostics)
		for _, s := range res.Diagnostics.SharesSorted() {
			fmt.Fprintf(os.Stderr, "  %-40s rejects %.0f%% of singleton groups\n", s.Constraint, 100*s.Fraction)
		}
		os.Exit(1)
	}
	if !*quiet {
		st, ast := gecco.Stats(log), gecco.Stats(res.Abstracted)
		fmt.Printf("grouping (distance %.4f, %d candidates, %v):\n", res.Distance, res.NumCandidates, res.Timings.Total().Round(time.Millisecond))
		for i, name := range res.Grouping.Names {
			fmt.Printf("  %-20s <- %s\n", name, strings.Join(res.GroupClasses[i], ", "))
		}
		fmt.Printf("classes %d -> %d, DFG edges %d -> %d\n", st.NumClasses, ast.NumClasses, st.NumDFGEdges, ast.NumDFGEdges)
	}
	if *outPath != "" {
		fatal(writeLog(*outPath, res.Abstracted))
	}
	if *dotPath != "" {
		fatal(os.WriteFile(*dotPath, []byte(gecco.DFGDot(res.Abstracted, *dotFrac)), 0o644))
	}
}

// runPipeline runs the staged engine offline: no per-stage cache, no
// session LRU — every stage executes. specArg is "default" for the standard
// suggest → abstract → discover → conform pipeline, or a JSON stage-list
// file in the POST /pipeline wire format.
func runPipeline(log *gecco.Log, specArg string, set *gecco.ConstraintSet, outPath string) error {
	text := ""
	if specArg != "default" {
		b, err := os.ReadFile(specArg)
		if err != nil {
			return err
		}
		text = string(b)
	}
	specs, err := pipeline.ParseSpecs(text)
	if err != nil {
		return err
	}
	stages, err := pipeline.BuildStages(specs)
	if err != nil {
		return err
	}
	digest := service.LogDigest(log)
	base := &pipeline.State{Index: eventlog.NewIndex(log), IndexKey: digest}
	if set.Len() > 0 {
		base.Constraints = set
	}
	start := time.Now()
	res, err := pipeline.Run(context.Background(), stages, base, pipeline.BaseKey(digest, set.String()), nil)
	if err != nil {
		return err
	}
	fmt.Printf("pipeline on %s (%d stages):\n", log.Name, len(res.Stages))
	for _, st := range res.Stages {
		fmt.Printf("  %-10s %9s  key %s\n", st.Stage, st.Duration.Round(time.Millisecond), st.Key[:12])
	}
	state := res.State
	if len(state.Suggestions) > 0 && state.Constraints != nil {
		fmt.Println("adopted constraints:")
		for _, c := range state.Constraints.All() {
			fmt.Printf("  %s\n", c)
		}
	}
	if a := state.Abstraction; a != nil {
		if a.Feasible {
			fmt.Printf("abstraction: distance %.4f, %d activities\n", a.Distance, len(a.Grouping.Names))
			for i, name := range a.Grouping.Names {
				fmt.Printf("  %-20s <- %s\n", name, strings.Join(a.GroupClasses[i], ", "))
			}
		} else {
			fmt.Printf("abstraction: infeasible (%s); downstream stages used the input log\n", a.Diagnostics)
		}
	}
	if m := state.Model; m != nil {
		fmt.Printf("model: %d activities, %d edges, CFC %.1f, size %d\n",
			len(m.Labels), m.Graph.NumEdges(), m.CFC(), m.Size())
	}
	if c := state.Conformance; c != nil {
		fmt.Printf("conformance: fitness %.4f, precision %.4f\n", c.Fitness, c.Precision)
		for _, mf := range c.Misfits {
			fmt.Printf("  misfit %s -> %s (%d)\n", mf.From, mf.To, mf.Count)
		}
	}
	fmt.Printf("pipeline total: %s\n", time.Since(start).Round(time.Millisecond))
	if outPath != "" && state.Abstraction != nil && state.Abstraction.Feasible {
		return writeLog(outPath, state.Abstracted.ReconstructLog())
	}
	return nil
}

// runSweep solves every constraint set of the sweep file on one session and
// prints a per-set comparison. base (the -constraints/-constraint text) is
// prepended to each set.
func runSweep(log *gecco.Log, path, base string, cfg gecco.Config) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	texts := splitSets(string(b))
	if len(texts) == 0 {
		return fmt.Errorf("sweep file %s holds no constraint sets", path)
	}
	sess, err := gecco.NewSession(log)
	if err != nil {
		return err
	}
	start := time.Now()
	fmt.Printf("sweeping %d constraint sets on %s (one session, warm distance memo):\n",
		len(texts), log.Name)
	fmt.Printf("  %-4s %-8s %7s %10s %11s %9s  %s\n",
		"set", "feasible", "groups", "distance", "candidates", "time", "constraints")
	for i, t := range texts {
		full := base + "\n" + t
		t0 := time.Now()
		res, err := sess.Solve(full, cfg)
		if err != nil {
			return fmt.Errorf("set %d: %w", i+1, err)
		}
		oneLine := strings.Join(strings.Fields(t), " ")
		if res.Feasible {
			fmt.Printf("  #%-3d %-8s %7d %10.4f %11d %9s  %s\n",
				i+1, "yes", len(res.Grouping.Names), res.Distance, res.NumCandidates,
				time.Since(t0).Round(time.Millisecond), oneLine)
		} else {
			fmt.Printf("  #%-3d %-8s %7s %10s %11d %9s  %s (%s)\n",
				i+1, "no", "-", "-", res.NumCandidates,
				time.Since(t0).Round(time.Millisecond), oneLine, res.Diagnostics)
		}
	}
	fmt.Printf("sweep total: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// splitSets splits a sweep file into constraint sets on lines containing
// only "---"; empty sets (e.g. a trailing separator) are dropped.
func splitSets(text string) []string {
	var out []string
	cur := ""
	flush := func() {
		if strings.TrimSpace(cur) != "" {
			out = append(out, cur)
		}
		cur = ""
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "---" {
			flush()
			continue
		}
		cur += line + "\n"
	}
	flush()
	return out
}

func readLog(path string) (*gecco.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch filepath.Ext(path) {
	case ".xes":
		return gecco.ReadXES(f)
	case ".csv":
		return gecco.ReadCSV(f, gecco.CSVOptions{})
	}
	return nil, fmt.Errorf("unsupported log format %q (want .xes or .csv)", filepath.Ext(path))
}

func writeLog(path string, log *gecco.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch filepath.Ext(path) {
	case ".xes":
		return gecco.WriteXES(f, log)
	case ".csv":
		return gecco.WriteCSV(f, log)
	}
	return fmt.Errorf("unsupported output format %q (want .xes or .csv)", filepath.Ext(path))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gecco:", err)
		os.Exit(1)
	}
}
