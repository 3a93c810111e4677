// Package simplex implements a dense dual simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  A x ≤ b
//	            x ≥ 0
//
// with c ≥ 0. It stands in for the lp_solve library used by the original
// TELS tool. Every threshold-check LP has unit costs, so the all-slack
// basis is dual feasible and the dual simplex starts from it directly:
// no phase 1, no artificial variables, and the objective is bounded below
// by 0. The LPs are tiny (at most fanin-restriction+1 variables), so the
// implementation favours clarity over speed: a condensed tableau, the
// dual form of Bland's anti-cycling rule and explicit tolerances.
package simplex

import (
	"fmt"
	"math"
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal    Status = iota // an optimal solution was found
	Infeasible               // the constraints admit no solution
	IterLimit                // the pivot limit was reached, the problem is invalid, or rounding left the verdict open
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Problem is a linear program: minimize C·x subject to A x ≤ B, x ≥ 0.
type Problem struct {
	C []float64   // objective coefficients, length = number of variables
	A [][]float64 // constraint rows, each of length len(C)
	B []float64   // right-hand sides, length = len(A)
}

// Validate checks structural consistency of the problem and that no cost
// is negative, which the dual simplex's starting basis needs.
func (p *Problem) Validate() error {
	n := len(p.C)
	if len(p.A) != len(p.B) {
		return fmt.Errorf("simplex: %d constraint rows but %d right-hand sides", len(p.A), len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("simplex: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	for j, c := range p.C {
		if c < 0 {
			return fmt.Errorf("simplex: cost %d is negative (%g)", j, c)
		}
	}
	return nil
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		C: append([]float64(nil), p.C...),
		B: append([]float64(nil), p.B...),
		A: make([][]float64, len(p.A)),
	}
	for i, row := range p.A {
		q.A[i] = append([]float64(nil), row...)
	}
	return q
}

// AddConstraint appends the row a·x ≤ b to the problem.
func (p *Problem) AddConstraint(a []float64, b float64) {
	row := append([]float64(nil), a...)
	p.A = append(p.A, row)
	p.B = append(p.B, b)
}

// Result holds the outcome of a solve.
type Result struct {
	Status    Status
	X         []float64 // primal solution (valid when Status == Optimal)
	Objective float64   // objective value at X
}

const (
	eps       = 1e-9
	maxPivots = 20000
)

// Solve runs the dual simplex on the problem from the all-slack basis. An
// invalid problem gives IterLimit, never a proven verdict.
//
// The condensed tableau has one row per constraint plus the objective row
// and one column per nonbasic variable plus the right-hand side, stored
// row-major with stride w = n+1. Variable j < n is x_j and n+i is the
// slack of row i. Row i reads x_basic[i] + Σ_j āᵢⱼ·x_nonbasic[j] = b̄ᵢ with
// āᵢⱼ = tab[i*w+j] and b̄ᵢ = tab[i*w+n]; the objective row holds the
// reduced costs, which stay ≥ 0.
func Solve(p *Problem) Result {
	if p.Validate() != nil {
		return Result{Status: IterLimit}
	}
	n, m := len(p.C), len(p.A)
	w := n + 1
	tab := make([]float64, (m+1)*w)
	basic := make([]int, m)
	for i, row := range p.A {
		copy(tab[i*w:], row)
		tab[i*w+n] = p.B[i]
		basic[i] = n + i
	}
	copy(tab[m*w:], p.C)
	nonbasic := make([]int, n)
	for j := range nonbasic {
		nonbasic[j] = j
	}
	cost := tab[m*w : m*w+n]
	for range maxPivots {
		// Leaving row: the smallest basic variable with a negative value.
		r := -1
		for i, v := range basic {
			if tab[i*w+n] < -eps && (r < 0 || v < basic[r]) {
				r = i
			}
		}
		if r < 0 {
			x := make([]float64, n)
			for i, v := range basic {
				if v < n {
					x[v] = tab[i*w+n]
				}
			}
			obj := 0.0
			for j, c := range p.C {
				obj += c * x[j]
			}
			return Result{Status: Optimal, X: x, Objective: obj}
		}
		// Entering column: minimum ratio, ties by smallest variable.
		row := tab[r*w : r*w+w]
		e, best := -1, math.Inf(1)
		for j, a := range row[:n] {
			if a >= -eps {
				continue
			}
			ratio := cost[j] / -a
			if ratio < best-eps || (ratio < best+eps && nonbasic[j] < nonbasic[e]) {
				e, best = j, ratio
			}
		}
		if e < 0 {
			// Row r is Σ yᵢ·(row i of A x + s = b) with y read off its
			// slack columns; it proves infeasibility unless drift made it
			// up, so check it on the problem's own data.
			y := make([]float64, m)
			for j, v := range nonbasic {
				if v >= n {
					y[v-n] = row[j]
				}
			}
			if basic[r] >= n {
				y[basic[r]-n] = 1
			}
			if farkas(p, y) {
				return Result{Status: Infeasible}
			}
			return Result{Status: IterLimit}
		}
		pivot(tab, w, r, e)
		basic[r], nonbasic[e] = nonbasic[e], basic[r]
	}
	return Result{Status: IterLimit}
}

// pivot exchanges the basic variable of row r with the nonbasic variable
// of column e in the condensed tableau of row stride w.
func pivot(tab []float64, w, r, e int) {
	row := tab[r*w : r*w+w]
	p := row[e]
	for j := range row {
		row[j] /= p
	}
	row[e] = 1 / p
	for i := 0; i < len(tab); i += w {
		other := tab[i : i+w]
		f := other[e]
		if i == r*w || f == 0 {
			continue
		}
		for j, v := range row {
			other[j] -= f * v
		}
		other[e] = -f / p
	}
}

// farkas reports whether y, clamped at 0, certifies that p has no
// solution: y·A ≥ 0 and y·b < 0 (Farkas' lemma), checked on the problem's
// own data with a tolerance relative to the magnitudes summed.
func farkas(p *Problem, y []float64) bool {
	yb, scale := 0.0, 0.0
	for i, yi := range y {
		yi = max(yi, 0)
		yb += yi * p.B[i]
		scale += yi * math.Abs(p.B[i])
	}
	if yb > -1e-7*(1+scale) {
		return false
	}
	for j := range p.C {
		ya, scale := 0.0, 0.0
		for i, yi := range y {
			yi = max(yi, 0)
			ya += yi * p.A[i][j]
			scale += yi * math.Abs(p.A[i][j])
		}
		if ya < -1e-7*(1+scale) {
			return false
		}
	}
	return true
}
