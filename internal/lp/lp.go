// Package lp is a dense two-phase primal simplex solver for linear programs
//
//	minimize    c·x
//	subject to  A_i·x (<=|>=|==) b_i   for each row i
//	            lower_j <= x_j <= upper_j
//
// It is the substrate beneath gecco's MIP solver (internal/mip), replacing
// the paper's use of Gurobi. The implementation favours robustness on the
// small/medium instances arising in log abstraction (tens of rows, up to a
// few thousand columns): Dantzig pricing with an automatic switch to Bland's
// rule to escape cycling, and explicit handling of fixed variables.
package lp

import (
	"context"
	"fmt"
	"math"
)

// RelOp is a row's relational operator.
type RelOp int

const (
	LE RelOp = iota
	GE
	EQ
)

func (o RelOp) String() string { return [...]string{"<=", ">=", "=="}[o] }

// Problem is an LP in natural (row) form. Lower and Upper may be nil,
// defaulting to 0 and +Inf respectively.
type Problem struct {
	NumVars int
	C       []float64   // objective coefficients (minimised)
	A       [][]float64 // dense rows, each of length NumVars
	Ops     []RelOp
	B       []float64
	Lower   []float64 // nil => all zeros
	Upper   []float64 // nil => all +Inf
}

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	if len(p.C) != p.NumVars {
		return fmt.Errorf("lp: objective has %d coefficients, want %d", len(p.C), p.NumVars)
	}
	if len(p.A) != len(p.B) || len(p.A) != len(p.Ops) {
		return fmt.Errorf("lp: inconsistent row counts: |A|=%d |B|=%d |Ops|=%d", len(p.A), len(p.B), len(p.Ops))
	}
	for i, row := range p.A {
		if len(row) != p.NumVars {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), p.NumVars)
		}
	}
	if p.Lower != nil && len(p.Lower) != p.NumVars {
		return fmt.Errorf("lp: lower bounds length %d, want %d", len(p.Lower), p.NumVars)
	}
	if p.Upper != nil && len(p.Upper) != p.NumVars {
		return fmt.Errorf("lp: upper bounds length %d, want %d", len(p.Upper), p.NumVars)
	}
	return nil
}

// Status is the outcome of a solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	// Cancelled means the solve was abandoned because the caller's context
	// was cancelled or its deadline expired; the solution is unusable.
	Cancelled
)

func (s Status) String() string {
	return [...]string{"optimal", "infeasible", "unbounded", "iteration-limit", "cancelled"}[s]
}

// Solution holds the result of SolveContext.
type Solution struct {
	Status Status
	X      []float64 // primal values in the original variable space
	Obj    float64
}

const (
	tol      = 1e-9
	feasTol  = 1e-7
	blandCap = 4 // switch to Bland's rule after blandCap*(m+n) iterations
)

// SolveContext solves the problem with two-phase primal simplex.
// Cancellation is sampled every ctxSampleInterval pivots and aborts the
// solve with Status Cancelled; a never-cancelled context leaves the pivot
// sequence, and so the solution, unchanged.
func SolveContext(ctx context.Context, p *Problem) Solution {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	st := standardize(p)
	if st.infeasible {
		return Solution{Status: Infeasible}
	}
	t := newTableau(st)
	t.ctx = ctx
	if status := t.phase1(); status != Optimal {
		return Solution{Status: status}
	}
	status := t.phase2()
	if status != Optimal {
		return Solution{Status: status}
	}
	x := t.extract(st)
	obj := 0.0
	for j, cj := range p.C {
		obj += cj * x[j]
	}
	return Solution{Status: Optimal, X: x, Obj: obj}
}

// standardized is the problem after variable shifting and bound-row
// expansion: minimize c·y, Ay (op) b, y >= 0, with y_j = x_j - lower_j and
// fixed variables eliminated.
type standardized struct {
	orig       *Problem
	varMap     []int     // original var -> standardized var index, -1 if fixed
	fixedVal   []float64 // original var -> fixed value (when varMap < 0)
	lower      []float64 // original lower bounds (resolved)
	n          int       // standardized structural variable count
	c          []float64
	rows       [][]float64
	ops        []RelOp
	b          []float64
	infeasible bool
}

func standardize(p *Problem) *standardized {
	lower := make([]float64, p.NumVars)
	upper := make([]float64, p.NumVars)
	for j := 0; j < p.NumVars; j++ {
		if p.Lower != nil {
			lower[j] = p.Lower[j]
		}
		upper[j] = math.Inf(1)
		if p.Upper != nil {
			upper[j] = p.Upper[j]
		}
	}
	st := &standardized{
		orig:     p,
		varMap:   make([]int, p.NumVars),
		fixedVal: make([]float64, p.NumVars),
		lower:    lower,
	}
	for j := 0; j < p.NumVars; j++ {
		switch {
		case upper[j] < lower[j]-tol:
			st.infeasible = true
			return st
		case upper[j] <= lower[j]+tol: // fixed variable
			st.varMap[j] = -1
			st.fixedVal[j] = lower[j]
		default:
			st.varMap[j] = st.n
			st.n++
		}
	}
	st.c = make([]float64, st.n)
	for j := 0; j < p.NumVars; j++ {
		if k := st.varMap[j]; k >= 0 {
			st.c[k] = p.C[j]
		}
	}
	for i, row := range p.A {
		newRow := make([]float64, st.n)
		rhs := p.B[i]
		for j, a := range row {
			if a == 0 {
				continue
			}
			if k := st.varMap[j]; k >= 0 {
				newRow[k] = a
				rhs -= a * lower[j] // shift y = x - lower
			} else {
				rhs -= a * st.fixedVal[j]
			}
		}
		st.rows = append(st.rows, newRow)
		st.ops = append(st.ops, p.Ops[i])
		st.b = append(st.b, rhs)
	}
	// Finite upper bounds become explicit rows y_j <= upper - lower.
	for j := 0; j < p.NumVars; j++ {
		k := st.varMap[j]
		if k < 0 || math.IsInf(upper[j], 1) {
			continue
		}
		row := make([]float64, st.n)
		row[k] = 1
		st.rows = append(st.rows, row)
		st.ops = append(st.ops, LE)
		st.b = append(st.b, upper[j]-lower[j])
	}
	return st
}

// tableau is the dense simplex tableau: m rows of structural + slack +
// artificial columns, plus RHS; obj holds the current reduced-cost row.
type tableau struct {
	m, n      int // rows, structural columns
	nSlack    int
	nArt      int
	cols      int // n + nSlack + nArt
	a         [][]float64
	rhs       []float64
	obj       []float64 // length cols+1; last entry is -objValue
	basis     []int
	artStart  int
	realCosts []float64
	iters     int
	ctx       context.Context // nil means non-cancellable
}

// ctxSampleInterval is how often (in pivots) the context is polled for
// cancellation; between samples the overshoot is bounded by the cost of
// ctxSampleInterval pivots.
const ctxSampleInterval = 64

func newTableau(st *standardized) *tableau {
	m := len(st.rows)
	t := &tableau{m: m, n: st.n}
	// Count slacks and artificials.
	for i := 0; i < m; i++ {
		op, b := st.ops[i], st.b[i]
		// Normalise to b >= 0 later; decide columns after normalisation.
		_ = op
		_ = b
	}
	type rowPlan struct {
		slack int // -1 none, else column offset with sign
		sign  float64
		art   bool
	}
	plans := make([]rowPlan, m)
	for i := 0; i < m; i++ {
		op := st.ops[i]
		sign := 1.0
		if st.b[i] < 0 {
			sign = -1
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		switch op {
		case LE:
			plans[i] = rowPlan{slack: t.nSlack, sign: sign}
			t.nSlack++
			// slack basic, no artificial needed
		case GE:
			plans[i] = rowPlan{slack: t.nSlack, sign: sign, art: true}
			t.nSlack++
			t.nArt++
		case EQ:
			plans[i] = rowPlan{slack: -1, sign: sign, art: true}
			t.nArt++
		}
	}
	t.cols = t.n + t.nSlack + t.nArt
	t.artStart = t.n + t.nSlack
	t.a = make([][]float64, m)
	t.rhs = make([]float64, m)
	t.basis = make([]int, m)
	artIdx := t.artStart
	for i := 0; i < m; i++ {
		row := make([]float64, t.cols)
		sign := plans[i].sign
		for j := 0; j < t.n; j++ {
			row[j] = sign * st.rows[i][j]
		}
		t.rhs[i] = sign * st.b[i]
		op := st.ops[i]
		if sign < 0 {
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		switch op {
		case LE:
			row[t.n+plans[i].slack] = 1
			t.basis[i] = t.n + plans[i].slack
		case GE:
			row[t.n+plans[i].slack] = -1
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		case EQ:
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		}
		t.a[i] = row
	}
	t.realCosts = make([]float64, t.cols)
	copy(t.realCosts, st.c)
	return t
}

// setObjective installs costs and zeroes reduced costs of basic columns.
func (t *tableau) setObjective(costs []float64) {
	t.obj = make([]float64, t.cols+1)
	copy(t.obj, costs)
	for i := 0; i < t.m; i++ {
		bj := t.basis[i]
		cb := t.obj[bj]
		if cb == 0 {
			continue
		}
		for j := 0; j <= t.cols; j++ {
			var aij float64
			if j < t.cols {
				aij = t.a[i][j]
			} else {
				aij = t.rhs[i]
			}
			t.obj[j] -= cb * aij
		}
	}
}

// iterate runs simplex pivots on the current objective until optimal.
// banned marks columns that may not enter (driven-out artificials).
func (t *tableau) iterate(banned []bool) Status {
	maxIters := 200 * (t.m + t.cols)
	blandAfter := blandCap * (t.m + t.cols)
	for iter := 0; ; iter++ {
		if iter > maxIters {
			return IterLimit
		}
		if t.ctx != nil && iter%ctxSampleInterval == 0 && t.ctx.Err() != nil {
			return Cancelled
		}
		t.iters++
		useBland := iter > blandAfter
		// Pricing: pick entering column.
		enter := -1
		best := -tol
		for j := 0; j < t.cols; j++ {
			if banned != nil && banned[j] {
				continue
			}
			rc := t.obj[j]
			if rc < -tol {
				if useBland {
					enter = j
					break
				}
				if rc < best {
					best = rc
					enter = j
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij > tol {
				r := t.rhs[i] / aij
				if r < bestRatio-tol || (r < bestRatio+tol && (leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = r
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
}

func (t *tableau) pivot(row, col int) {
	piv := t.a[row][col]
	inv := 1 / piv
	for j := 0; j < t.cols; j++ {
		t.a[row][j] *= inv
	}
	t.rhs[row] *= inv
	t.a[row][col] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < t.cols; j++ {
			t.a[i][j] -= f * t.a[row][j]
		}
		t.a[i][col] = 0
		t.rhs[i] -= f * t.rhs[row]
	}
	f := t.obj[col]
	if f != 0 {
		for j := 0; j < t.cols; j++ {
			t.obj[j] -= f * t.a[row][j]
		}
		t.obj[col] = 0
		t.obj[t.cols] -= f * t.rhs[row]
	}
	t.basis[row] = col
}

func (t *tableau) phase1() Status {
	if t.nArt == 0 {
		return Optimal
	}
	costs := make([]float64, t.cols)
	for j := t.artStart; j < t.cols; j++ {
		costs[j] = 1
	}
	t.setObjective(costs)
	status := t.iterate(nil)
	if status != Optimal {
		return status
	}
	// Phase-1 optimum: -obj[cols] is the artificial sum.
	if -t.obj[t.cols] > feasTol {
		return Infeasible
	}
	// Drive any artificial still basic (at zero) out of the basis.
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > tol {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Row is redundant; leave the zero-valued artificial basic.
			t.rhs[i] = 0
		}
	}
	return Optimal
}

func (t *tableau) phase2() Status {
	t.setObjective(t.realCosts)
	banned := make([]bool, t.cols)
	for j := t.artStart; j < t.cols; j++ {
		banned[j] = true
	}
	return t.iterate(banned)
}

// extract maps the tableau's basic solution back to original variables.
func (t *tableau) extract(st *standardized) []float64 {
	y := make([]float64, t.cols)
	for i := 0; i < t.m; i++ {
		y[t.basis[i]] = t.rhs[i]
	}
	x := make([]float64, st.orig.NumVars)
	for j := 0; j < st.orig.NumVars; j++ {
		if k := st.varMap[j]; k >= 0 {
			x[j] = y[k] + st.lower[j]
		} else {
			x[j] = st.fixedVal[j]
		}
	}
	return x
}
