package experiments

import (
	"context"
	"fmt"
	"io"

	"gecco/internal/core"
)

// Detail is the outcome of a single abstraction problem, identified by log
// and constraint set — the per-problem breakdown behind the aggregate
// tables (the paper's repository likewise publishes per-problem results).
type Detail struct {
	Log  string
	Set  SetID
	Mode core.Mode
	Measures
}

// DetailTable runs one configuration over all logs and sets, returning the
// full per-problem matrix. Problems on the same log share a session.
func DetailTable(ctx context.Context, mode core.Mode, opts Options) []Detail {
	opts = opts.withDefaults()
	pool := newSessionPool()
	var out []Detail
	for _, id := range AllSets() {
		for _, log := range opts.Logs {
			m := pool.run(ctx, log, id, mode, opts)
			out = append(out, Detail{Log: log.Name, Set: id, Mode: mode, Measures: m})
		}
	}
	return out
}

// PrintDetails renders the per-problem matrix.
func PrintDetails(w io.Writer, details []Detail) {
	fmt.Fprintf(w, "%-18s %-5s %-5s %8s %7s %7s %7s %8s\n",
		"Log", "Set", "Conf", "Solved", "S.red", "C.red", "Sil.", "T(s)")
	for _, d := range details {
		solved := "-"
		switch {
		case !d.Applicable:
			solved = "n/a"
		case d.Solved:
			solved = "yes"
		default:
			solved = "no"
		}
		fmt.Fprintf(w, "%-18s %-5s %-5s %8s %7.2f %7.2f %7.2f %8.3f\n",
			d.Log, d.Set, d.Mode, solved, d.SRed, d.CRed, d.Sil, d.Seconds)
	}
}

// SolvedMatrix summarises feasibility per (log, set) as a compact grid —
// rows are logs, columns the constraint sets, cells y/n/- (inapplicable).
func SolvedMatrix(details []Detail) string {
	logs := []string{}
	seen := map[string]bool{}
	for _, d := range details {
		if !seen[d.Log] {
			seen[d.Log] = true
			logs = append(logs, d.Log)
		}
	}
	cell := map[string]map[SetID]string{}
	for _, d := range details {
		if cell[d.Log] == nil {
			cell[d.Log] = map[SetID]string{}
		}
		switch {
		case !d.Applicable:
			cell[d.Log][d.Set] = "-"
		case d.Solved:
			cell[d.Log][d.Set] = "y"
		default:
			cell[d.Log][d.Set] = "n"
		}
	}
	out := fmt.Sprintf("%-18s", "Log")
	for _, id := range AllSets() {
		out += fmt.Sprintf(" %-3s", id)
	}
	out += "\n"
	for _, l := range logs {
		out += fmt.Sprintf("%-18s", l)
		for _, id := range AllSets() {
			out += fmt.Sprintf(" %-3s", cell[l][id])
		}
		out += "\n"
	}
	return out
}
