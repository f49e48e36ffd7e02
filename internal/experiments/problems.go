package experiments

import (
	"gecco/internal/bitset"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

// The problems of gecco-bench's -quick, -eval-bench and -index-bench
// sections. gecco-bench times them; TestSolverWorkCounters pins the exact
// work the solver does on them.

// QuickMaxChecks is the candidate budget per problem of a -quick run.
const QuickMaxChecks = 5000

// QuickLogs picks the -quick subset of the collection: five logs with 4 to
// 24 classes, with and without a class-level attribute.
func QuickLogs(collection []*eventlog.Log) []*eventlog.Log {
	return []*eventlog.Log{collection[0], collection[3], collection[6], collection[8], collection[10]}
}

// KernelProblem is the input of the kernel section: the loan log's index,
// three instance constraints the bitset screens can decide, and every pair
// and triple of the log's classes.
func KernelProblem() (*eventlog.Index, *constraints.Set, []bitset.Set) {
	x := eventlog.NewIndex(procgen.LoanLog(1000, 17))
	set := constraints.NewSet(
		constraints.MustParse("distinct(role) <= 2"),
		constraints.MustParse("max(cost) <= 400"),
		constraints.MustParse("gap <= 3600"),
	)
	nc := x.NumClasses()
	var groups []bitset.Set
	for a := 0; a < nc; a++ {
		for b := a + 1; b < nc; b++ {
			groups = append(groups, bitset.FromSlice(nc, []int{a, b}))
			for c := b + 1; c < nc; c++ {
				groups = append(groups, bitset.FromSlice(nc, []int{a, b, c}))
			}
		}
	}
	return x, set, groups
}

// BeamProblem is the log and configuration of the kernel section's beam
// run, solved under KernelProblem's constraints. A tight beam makes the
// lower bound gate the frontier sort. The bound only separates paths whose
// class sets the log hosts with different degrees of partial coverage, so
// the run uses the collection's second log (40 classes, noisy variants);
// on the loan log nearly every class co-occurs with every other and the
// bounds barely spread.
func BeamProblem(opts Options) (*eventlog.Log, core.Config) {
	cfg := core.Config{Mode: core.DFGBeam, BeamWidth: 4, Workers: opts.Workers}
	cfg.Budget.MaxChecks = opts.MaxChecks
	return procgen.BuildLog(procgen.CollectionSpecs()[1]), cfg
}

// IndexLogs are the logs of the index section.
func IndexLogs() []*eventlog.Log {
	return []*eventlog.Log{procgen.LoanLog(1000, 17), procgen.RunningExample(2000, 7)}
}
