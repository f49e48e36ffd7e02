package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gecco/internal/lp"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestKnapsack(t *testing.T) {
	// max 5a + 4b + 3c s.t. 2a + 3b + c <= 5, binary. Optimum: a=1, c=1
	// (value 8)? a+b: 2+3=5 → 9. So best is a=1,b=1 → 9.
	p := &Problem{
		LP: lp.Problem{
			NumVars: 3,
			C:       []float64{-5, -4, -3}, // maximise via negated min
			A:       [][]float64{{2, 3, 1}},
			Ops:     []lp.RelOp{lp.LE},
			B:       []float64{5},
			Upper:   []float64{1, 1, 1},
		},
		Integer: []bool{true, true, true},
	}
	s := SolveContext(context.Background(), p)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if !approx(s.Obj, -9, 1e-6) {
		t.Fatalf("obj = %f, want -9", s.Obj)
	}
	if s.X[0] != 1 || s.X[1] != 1 || s.X[2] != 0 {
		t.Fatalf("x = %v", s.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// min x s.t. x >= 2.3, integer → 3.
	p := &Problem{
		LP: lp.Problem{
			NumVars: 1,
			C:       []float64{1},
			A:       [][]float64{{1}},
			Ops:     []lp.RelOp{lp.GE},
			B:       []float64{2.3},
		},
		Integer: []bool{true},
	}
	s := SolveContext(context.Background(), p)
	if s.Status != Optimal || s.X[0] != 3 {
		t.Fatalf("status %v x %v", s.Status, s.X)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	// 0.4 <= x <= 0.6 has no integer point.
	p := &Problem{
		LP: lp.Problem{
			NumVars: 1,
			C:       []float64{1},
			A:       [][]float64{{1}, {1}},
			Ops:     []lp.RelOp{lp.GE, lp.LE},
			B:       []float64{0.4, 0.6},
		},
		Integer: []bool{true},
	}
	if s := SolveContext(context.Background(), p); s.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min x + y, x integer, y continuous, x + y >= 2.5, x >= 0.7.
	// Best: x=1, y=1.5 → 2.5.
	p := &Problem{
		LP: lp.Problem{
			NumVars: 2,
			C:       []float64{1, 1},
			A:       [][]float64{{1, 1}, {1, 0}},
			Ops:     []lp.RelOp{lp.GE, lp.GE},
			B:       []float64{2.5, 0.7},
		},
		Integer: []bool{true, false},
	}
	s := SolveContext(context.Background(), p)
	// Multiple optima exist (e.g. x=1,y=1.5 and x=2,y=0.5); check the
	// objective and integrality only.
	if s.Status != Optimal || !approx(s.Obj, 2.5, 1e-6) || s.X[0] != math.Round(s.X[0]) {
		t.Fatalf("status %v x %v obj %f", s.Status, s.X, s.Obj)
	}
}

// bruteBinary enumerates all binary assignments for reference.
func bruteBinary(p *Problem) (float64, []float64, bool) {
	nv := p.LP.NumVars
	best := math.Inf(1)
	var bestX []float64
	for mask := 0; mask < 1<<nv; mask++ {
		x := make([]float64, nv)
		for j := 0; j < nv; j++ {
			if mask&(1<<j) != 0 {
				x[j] = 1
			}
		}
		ok := true
		for r, row := range p.LP.A {
			v := 0.0
			for j := range row {
				v += row[j] * x[j]
			}
			switch p.LP.Ops[r] {
			case lp.LE:
				ok = ok && v <= p.LP.B[r]+1e-9
			case lp.GE:
				ok = ok && v >= p.LP.B[r]-1e-9
			case lp.EQ:
				ok = ok && math.Abs(v-p.LP.B[r]) <= 1e-9
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		obj := 0.0
		for j := range x {
			obj += p.LP.C[j] * x[j]
		}
		if obj < best {
			best = obj
			bestX = x
		}
	}
	return best, bestX, bestX != nil
}

// Randomised binary programs cross-checked against brute force.
func TestRandomisedBinaryAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		nv := 3 + rng.Intn(6) // up to 8 binaries
		p := &Problem{
			LP: lp.Problem{
				NumVars: nv,
				C:       make([]float64, nv),
				Upper:   make([]float64, nv),
			},
			Integer: make([]bool, nv),
		}
		for j := 0; j < nv; j++ {
			p.LP.C[j] = math.Round(rng.Float64()*20-10) / 2
			p.LP.Upper[j] = 1
			p.Integer[j] = true
		}
		nRows := 1 + rng.Intn(3)
		for r := 0; r < nRows; r++ {
			row := make([]float64, nv)
			for j := range row {
				row[j] = math.Round(rng.Float64() * 3)
			}
			p.LP.A = append(p.LP.A, row)
			p.LP.Ops = append(p.LP.Ops, []lp.RelOp{lp.LE, lp.GE}[rng.Intn(2)])
			p.LP.B = append(p.LP.B, math.Round(rng.Float64()*float64(nv)))
		}
		ref, _, feasible := bruteBinary(p)
		s := SolveContext(context.Background(), p)
		if !feasible {
			if s.Status != Infeasible {
				t.Fatalf("trial %d: brute infeasible but solver says %v", trial, s.Status)
			}
			continue
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v (brute obj %f)", trial, s.Status, ref)
		}
		if !approx(s.Obj, ref, 1e-6) {
			t.Fatalf("trial %d: obj %f, brute %f", trial, s.Obj, ref)
		}
	}
}

func TestNodeLimit(t *testing.T) {
	// A deliberately fractional-heavy instance with a 1-node cap.
	nv := 10
	p := &Problem{
		LP: lp.Problem{
			NumVars: nv,
			C:       make([]float64, nv),
			Upper:   make([]float64, nv),
		},
		Integer: make([]bool, nv),
	}
	row := make([]float64, nv)
	for j := 0; j < nv; j++ {
		p.LP.C[j] = -1
		p.LP.Upper[j] = 1
		p.Integer[j] = true
		row[j] = 2
	}
	p.LP.A = [][]float64{row}
	p.LP.Ops = []lp.RelOp{lp.LE}
	p.LP.B = []float64{3} // sum 2x <= 3 → at most one var at 1 plus fraction
	s := solve(context.Background(), p, 1)
	if s.Status != NodeLimit && s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
}

func TestSolveContextCancelled(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			NumVars: 2,
			C:       []float64{-5, -4},
			A:       [][]float64{{2, 3}},
			Ops:     []lp.RelOp{lp.LE},
			B:       []float64{5},
			Upper:   []float64{1, 1},
		},
		Integer: []bool{true, true},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := SolveContext(ctx, p)
	if s.Status != Cancelled {
		t.Fatalf("status %v, want cancelled", s.Status)
	}
	// Live context: identical to the plain solve.
	got := SolveContext(context.Background(), p)
	want := SolveContext(context.Background(), p)
	if got.Status != want.Status || got.Obj != want.Obj {
		t.Fatalf("context solve diverged: %v/%v vs %v/%v", got.Status, got.Obj, want.Status, want.Obj)
	}
}
