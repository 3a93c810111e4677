package simplex

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimpleLP(t *testing.T) {
	// min x+y s.t. x+2y ≥ 4, 3x+y ≥ 6; optimum at (8/5, 6/5).
	p := &Problem{
		C: []float64{1, 1},
		A: [][]float64{{-1, -2}, {-3, -1}},
		B: []float64{-4, -6},
	}
	res := Solve(p)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if !almostEq(res.X[0], 1.6) || !almostEq(res.X[1], 1.2) {
		t.Fatalf("X = %v, want [1.6 1.2]", res.X)
	}
	if !almostEq(res.Objective, 2.8) {
		t.Fatalf("obj = %v, want 2.8", res.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x+y s.t. x+y ≥ 3 (i.e. -x-y ≤ -3). Optimum value 3.
	p := &Problem{
		C: []float64{1, 1},
		A: [][]float64{{-1, -1}},
		B: []float64{-3},
	}
	res := Solve(p)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if !almostEq(res.X[0]+res.X[1], 3) {
		t.Fatalf("X = %v, want sum 3", res.X)
	}
	if !almostEq(res.Objective, 3) {
		t.Fatalf("obj = %v, want 3", res.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x ≤ 1 and x ≥ 2.
	p := &Problem{
		C: []float64{1},
		A: [][]float64{{1}, {-1}},
		B: []float64{1, -2},
	}
	if res := Solve(p); res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestNoConstraints(t *testing.T) {
	p := &Problem{C: []float64{1, 2}}
	res := Solve(p)
	if res.Status != Optimal || res.X[0] != 0 || res.X[1] != 0 {
		t.Fatalf("res = %+v, want optimal at origin", res)
	}
}

func TestDegenerate(t *testing.T) {
	// Repeated and redundant rows make degenerate pivots; the solve must
	// still terminate at the optimum x ≥ 2, y ≥ 1, x+y+z ≥ 4.
	p := &Problem{
		C: []float64{1, 1, 1},
		A: [][]float64{
			{-1, 0, 0},
			{-1, 0, 0},
			{0, -1, 0},
			{-1, -1, -1},
			{-1, -1, -1},
		},
		B: []float64{-2, -2, -1, -4, -4},
	}
	res := Solve(p)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if !almostEq(res.Objective, 4) {
		t.Fatalf("obj = %v, want 4", res.Objective)
	}
}

func TestValidate(t *testing.T) {
	p := &Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate should reject ragged rows")
	}
	q := &Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{}}
	if err := q.Validate(); err == nil {
		t.Fatal("Validate should reject mismatched B")
	}
	r := &Problem{C: []float64{1, -1}, A: [][]float64{{1, 1}}, B: []float64{-1}}
	if err := r.Validate(); err == nil {
		t.Fatal("Validate should reject a negative cost")
	}
	// An invalid problem is never a proven verdict: a caller would store
	// Infeasible as a certificate.
	for _, bad := range []*Problem{p, q, r} {
		if res := Solve(bad); res.Status != IterLimit {
			t.Fatalf("Solve(%+v) = %v, want %v", bad, res.Status, IterLimit)
		}
	}
}

func TestThresholdStyleLP(t *testing.T) {
	// The LP relaxation of the paper's worked example (§V-B):
	// min w1+w2+w3+T
	//   w1+w2 ≥ T        (ON, δon=0)
	//   w1+w3 ≥ T
	//   w2+w3 ≤ T-1      (OFF, δoff=1)
	//   w1    ≤ T-1
	// Variables: w1,w2,w3,T ≥ 0.
	p := &Problem{
		C: []float64{1, 1, 1, 1},
		A: [][]float64{
			{-1, -1, 0, 1},
			{-1, 0, -1, 1},
			{0, 1, 1, -1},
			{1, 0, 0, -1},
		},
		B: []float64{0, 0, -1, -1},
	}
	res := Solve(p)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Feasibility of the returned point.
	w1, w2, w3, T := res.X[0], res.X[1], res.X[2], res.X[3]
	if w1+w2 < T-1e-6 || w1+w3 < T-1e-6 {
		t.Fatalf("ON constraints violated: %v", res.X)
	}
	if w2+w3 > T-1+1e-6 || w1 > T-1+1e-6 {
		t.Fatalf("OFF constraints violated: %v", res.X)
	}
}

// Randomized cross-check against brute force over a small grid: whenever
// simplex says optimal, no grid point may beat it; whenever it says
// infeasible, no grid point may be feasible.
func TestRandomAgainstGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 2
		m := 1 + rng.Intn(3)
		p := &Problem{C: make([]float64, n)}
		for j := range p.C {
			p.C[j] = float64(rng.Intn(5)) // nonneg cost => bounded
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(rng.Intn(7) - 3)
			}
			p.A = append(p.A, row)
			p.B = append(p.B, float64(rng.Intn(9)-4))
		}
		res := Solve(p)
		bestGrid := math.Inf(1)
		feasibleGrid := false
		for x0 := 0.0; x0 <= 6; x0 += 0.5 {
			for x1 := 0.0; x1 <= 6; x1 += 0.5 {
				ok := true
				for i := range p.A {
					if p.A[i][0]*x0+p.A[i][1]*x1 > p.B[i]+1e-9 {
						ok = false
						break
					}
				}
				if ok {
					feasibleGrid = true
					v := p.C[0]*x0 + p.C[1]*x1
					if v < bestGrid {
						bestGrid = v
					}
				}
			}
		}
		switch res.Status {
		case Optimal:
			if feasibleGrid && res.Objective > bestGrid+1e-6 {
				t.Fatalf("iter %d: simplex %v worse than grid %v (p=%+v)", iter, res.Objective, bestGrid, p)
			}
		case Infeasible:
			if feasibleGrid {
				t.Fatalf("iter %d: simplex infeasible but grid point exists (p=%+v)", iter, p)
			}
		}
	}
}
