package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSimpleLE(t *testing.T) {
	// min -x - y  s.t. x + y <= 4, x <= 2, y <= 3  → x=2, y=2 (obj -4)...
	// actually x=2,y=2 gives -4; x=1,y=3 also -4. Optimum objective is -4.
	p := &Problem{
		NumVars: 2,
		C:       []float64{-1, -1},
		A:       [][]float64{{1, 1}},
		Ops:     []RelOp{LE},
		B:       []float64{4},
		Upper:   []float64{2, 3},
	}
	s := SolveContext(context.Background(), p)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if !approx(s.Obj, -4, 1e-9) {
		t.Fatalf("obj = %f, want -4", s.Obj)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min 2x + 3y  s.t. x + y == 10, x >= 3  → x=10? No: y=0 allowed, so
	// x=10,y=0 gives 20; x=3,y=7 gives 27. Optimum 20.
	p := &Problem{
		NumVars: 2,
		C:       []float64{2, 3},
		A:       [][]float64{{1, 1}, {1, 0}},
		Ops:     []RelOp{EQ, GE},
		B:       []float64{10, 3},
	}
	s := SolveContext(context.Background(), p)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if !approx(s.Obj, 20, 1e-9) || !approx(s.X[0], 10, 1e-9) {
		t.Fatalf("x = %v obj = %f", s.X, s.Obj)
	}
}

func TestInfeasible(t *testing.T) {
	// x >= 5 and x <= 2 is infeasible.
	p := &Problem{
		NumVars: 1,
		C:       []float64{1},
		A:       [][]float64{{1}, {1}},
		Ops:     []RelOp{GE, LE},
		B:       []float64{5, 2},
	}
	if s := SolveContext(context.Background(), p); s.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with x >= 0 unbounded below in objective.
	p := &Problem{
		NumVars: 1,
		C:       []float64{-1},
		A:       [][]float64{},
		Ops:     []RelOp{},
		B:       []float64{},
	}
	if s := SolveContext(context.Background(), p); s.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", s.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// -x <= -3 means x >= 3; min x → 3.
	p := &Problem{
		NumVars: 1,
		C:       []float64{1},
		A:       [][]float64{{-1}},
		Ops:     []RelOp{LE},
		B:       []float64{-3},
	}
	s := SolveContext(context.Background(), p)
	if s.Status != Optimal || !approx(s.X[0], 3, 1e-9) {
		t.Fatalf("status %v x %v", s.Status, s.X)
	}
}

func TestFixedVariable(t *testing.T) {
	// Fix x=2 via bounds; min x + y s.t. x + y >= 5 → y = 3.
	p := &Problem{
		NumVars: 2,
		C:       []float64{1, 1},
		A:       [][]float64{{1, 1}},
		Ops:     []RelOp{GE},
		B:       []float64{5},
		Lower:   []float64{2, 0},
		Upper:   []float64{2, math.Inf(1)},
	}
	s := SolveContext(context.Background(), p)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if !approx(s.X[0], 2, 1e-9) || !approx(s.X[1], 3, 1e-9) {
		t.Fatalf("x = %v", s.X)
	}
}

func TestLowerBoundShift(t *testing.T) {
	// min x s.t. x >= 0 with lower bound 1.5 → 1.5.
	p := &Problem{
		NumVars: 1,
		C:       []float64{1},
		A:       [][]float64{},
		Ops:     []RelOp{},
		B:       []float64{},
		Lower:   []float64{1.5},
	}
	s := SolveContext(context.Background(), p)
	if s.Status != Optimal || !approx(s.X[0], 1.5, 1e-9) {
		t.Fatalf("status %v x %v", s.Status, s.X)
	}
}

func TestDegenerateRedundantRows(t *testing.T) {
	// Duplicate equality rows must not break phase 1.
	p := &Problem{
		NumVars: 2,
		C:       []float64{1, 2},
		A:       [][]float64{{1, 1}, {1, 1}, {2, 2}},
		Ops:     []RelOp{EQ, EQ, EQ},
		B:       []float64{4, 4, 8},
	}
	s := SolveContext(context.Background(), p)
	if s.Status != Optimal || !approx(s.Obj, 4, 1e-9) { // x=4, y=0
		t.Fatalf("status %v obj %f", s.Status, s.Obj)
	}
}

// bruteForceLP solves tiny LPs with vertices enumeration over variable
// bound boxes and row intersections is overkill; instead, grid-search a
// fine lattice for a reference objective (valid for bounded feasible sets
// in [0, 4]^2).
func bruteGrid2(p *Problem, steps int) (float64, bool) {
	best := math.Inf(1)
	found := false
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			x := []float64{4 * float64(i) / float64(steps), 4 * float64(j) / float64(steps)}
			ok := true
			for r, row := range p.A {
				v := row[0]*x[0] + row[1]*x[1]
				switch p.Ops[r] {
				case LE:
					ok = ok && v <= p.B[r]+1e-9
				case GE:
					ok = ok && v >= p.B[r]-1e-9
				case EQ:
					ok = ok && math.Abs(v-p.B[r]) <= 4.0/float64(steps)
				}
			}
			if ok {
				obj := p.C[0]*x[0] + p.C[1]*x[1]
				if obj < best {
					best = obj
					found = true
				}
			}
		}
	}
	return best, found
}

// Randomised comparison against grid search on bounded 2-var LPs with LE
// rows only (avoiding EQ-grid quantisation issues).
func TestRandomisedAgainstGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nRows := 1 + rng.Intn(3)
		p := &Problem{
			NumVars: 2,
			C:       []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2},
			Upper:   []float64{4, 4},
		}
		for r := 0; r < nRows; r++ {
			p.A = append(p.A, []float64{rng.Float64() * 2, rng.Float64() * 2})
			p.Ops = append(p.Ops, LE)
			p.B = append(p.B, rng.Float64()*6)
		}
		s := SolveContext(context.Background(), p)
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		ref, ok := bruteGrid2(p, 400)
		if !ok {
			continue
		}
		if s.Obj > ref+1e-6 {
			t.Fatalf("trial %d: simplex obj %f worse than grid %f", trial, s.Obj, ref)
		}
		// Simplex may be better than the grid (finer), but not by more than
		// one grid cell of objective variation.
		if ref-s.Obj > 0.1 {
			t.Fatalf("trial %d: simplex obj %f suspiciously better than grid %f", trial, s.Obj, ref)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on malformed problem")
		}
	}()
	SolveContext(context.Background(), &Problem{NumVars: 2, C: []float64{1}})
}

func TestSolveContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := SolveContext(ctx, &Problem{
		NumVars: 2,
		C:       []float64{-1, -1},
		A:       [][]float64{{1, 1}},
		Ops:     []RelOp{LE},
		B:       []float64{4},
	})
	if s.Status != Cancelled {
		t.Fatalf("status %v, want cancelled", s.Status)
	}
	// A live context must match the plain solve exactly.
	want := SolveContext(context.Background(), &Problem{
		NumVars: 2,
		C:       []float64{-1, -1},
		A:       [][]float64{{1, 1}},
		Ops:     []RelOp{LE},
		B:       []float64{4},
	})
	got := SolveContext(context.Background(), &Problem{
		NumVars: 2,
		C:       []float64{-1, -1},
		A:       [][]float64{{1, 1}},
		Ops:     []RelOp{LE},
		B:       []float64{4},
	})
	if got.Status != want.Status || got.Obj != want.Obj {
		t.Fatalf("context solve diverged: %v/%v vs %v/%v", got.Status, got.Obj, want.Status, want.Obj)
	}
}
