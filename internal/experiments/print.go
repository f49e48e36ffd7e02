package experiments

import (
	"fmt"
	"io"

	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

// PaperRow holds the paper's reported values for side-by-side printing.
type PaperRow struct {
	Solved, SRed, CRed, Sil float64
	Minutes                 float64
}

// PaperTable5 is Table V of the paper (Exh per constraint set).
var PaperTable5 = map[string]PaperRow{
	"A":   {1.00, 0.68, 0.63, 0.15, 146},
	"M":   {0.31, 0.58, 0.55, 0.15, 75},
	"N":   {0.77, 0.68, 0.65, 0.12, 154},
	"Gr":  {1.00, 0.66, 0.61, 0.13, 144},
	"C1":  {0.54, 0.68, 0.59, 0.12, 134},
	"C2":  {0.23, 0.50, 0.40, 0.09, 100},
	"BL1": {1.00, 0.67, 0.61, 0.12, 122},
	"BL2": {1.00, 0.66, 0.61, 0.12, 121},
	"BL3": {1.00, 0.38, 0.29, -0.02, 38},
	"BL4": {1.00, 0.51, 0.46, 0.05, 147},
}

// PaperTable6 is Table VI (per configuration).
var PaperTable6 = map[string]PaperRow{
	"Exh":  {0.78, 0.63, 0.57, 0.11, 130},
	"DFG∞": {0.78, 0.62, 0.56, 0.16, 108},
	"DFGk": {0.77, 0.56, 0.50, 0.08, 49},
}

// PaperTable7 is Table VII (baseline comparison).
var PaperTable7 = map[string]PaperRow{
	"BL[1-3] DFG∞": {1.00, 0.63, 0.55, 0.17, 77},
	"BL[1-3] BL_Q": {0.96, 0.55, 0.43, -0.20, 24},
	"BL4 Exh":      {1.00, 0.51, 0.46, 0.05, 147},
	"BL4 BL_P":     {1.00, 0.51, 0.42, 0.01, 1},
	"A,M,N DFGk":   {0.67, 0.59, 0.52, 0.08, 58},
	"A,M,N BL_G":   {0.64, 0.45, 0.37, 0.02, 24},
}

// PrintRows renders measured rows next to the paper's values. The paper's
// runtimes (minutes on full-size BPI logs) and ours (seconds on scaled-down
// synthetics) are printed in their native units: relative ordering, not
// magnitude, is the comparable signal. Ours get three decimals, so a
// configuration that solves in milliseconds still orders against the rest.
func PrintRows(w io.Writer, title string, rows []Row, paper map[string]PaperRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-14s %8s %8s %8s %8s %9s   |  %s\n",
		"Const./Conf.", "Solved", "S.red", "C.red", "Sil.", "T(s)", "paper: Solved S.red C.red Sil. T(m)")
	for _, r := range rows {
		line := fmt.Sprintf("%-14s %8.2f %8.2f %8.2f %8.2f %9.3f", r.Label, r.Solved, r.SRed, r.CRed, r.Sil, r.Seconds)
		if p, ok := paper[r.Label]; ok {
			line += fmt.Sprintf("   |  %11.2f %5.2f %5.2f %5.2f %5.0f", p.Solved, p.SRed, p.CRed, p.Sil, p.Minutes)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w)
}

// PrintTable3 renders the synthetic log collection next to the paper's
// Table III characteristics.
func PrintTable3(w io.Writer, logs []*eventlog.Log) {
	specs := procgen.CollectionSpecs()
	fmt.Fprintln(w, "Table III — log collection (measured synthetic vs. paper)")
	fmt.Fprintf(w, "%-6s %6s %8s %9s %7s %8s   |  %s\n",
		"Ref", "|CL|", "Traces", "Variants", "|E|", "Avg|σ|", "paper: Traces Variants |E| Avg|σ|")
	for i, log := range logs {
		st := log.ComputeStats()
		sp := specs[i]
		fmt.Fprintf(w, "%-6s %6d %8d %9d %7d %8.2f   |  %12d %8d %5d %6.2f\n",
			sp.Ref, st.NumClasses, st.NumTraces, st.NumVariants, st.NumDFGEdges, st.AvgTraceLen,
			sp.PaperTraces, sp.PaperVariants, sp.PaperEdges, sp.PaperAvgLen)
	}
	fmt.Fprintln(w)
}
