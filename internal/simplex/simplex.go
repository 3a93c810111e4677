// Package simplex implements a dense two-phase primal simplex solver for
// linear programs in the form
//
//	minimize    c·x
//	subject to  A x ≤ b
//	            x ≥ 0
//
// It stands in for the lp_solve library used by the original TELS tool.
// The threshold-check ILPs it serves are tiny (at most fanin-restriction+1
// variables), so the implementation favours clarity and numerical
// robustness (Bland's anti-cycling rule, explicit tolerances) over speed.
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
	Unbounded                // the objective is unbounded below
	IterLimit                // the iteration limit was reached, or rounding left the verdict open
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
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

// Validate checks structural consistency of the problem.
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
	eps          = 1e-9
	defaultIters = 20000
)

// Solve runs two-phase primal simplex on the problem.
func Solve(p *Problem) Result {
	return SolveWithLimit(p, defaultIters)
}

// SolveWithLimit is Solve with an explicit pivot-count budget.
func SolveWithLimit(p *Problem, maxIters int) Result {
	if err := p.Validate(); err != nil {
		return Result{Status: Infeasible}
	}
	n := len(p.C)
	m := len(p.A)
	if m == 0 {
		// Unconstrained: optimum is x = 0 unless some cost is negative.
		for _, c := range p.C {
			if c < -eps {
				return Result{Status: Unbounded}
			}
		}
		return Result{Status: Optimal, X: make([]float64, n)}
	}

	// Tableau layout: columns are [x_0..x_{n-1}, s_0..s_{m-1}, a_0.., rhs].
	// Rows with negative b are negated so rhs ≥ 0; such rows get an
	// artificial variable (their slack enters with coefficient -1).
	numArt := 0
	negRow := make([]bool, m)
	for i, b := range p.B {
		if b < 0 {
			negRow[i] = true
			numArt++
		}
	}
	cols := n + m + numArt + 1
	rhs := cols - 1
	tab := make([][]float64, m)
	basis := make([]int, m)
	artCol := n + m
	for i := 0; i < m; i++ {
		row := make([]float64, cols)
		sign := 1.0
		if negRow[i] {
			sign = -1.0
		}
		for j := 0; j < n; j++ {
			row[j] = sign * p.A[i][j]
		}
		row[n+i] = sign // slack
		row[rhs] = sign * p.B[i]
		if negRow[i] {
			row[artCol] = 1
			basis[i] = artCol
			artCol++
		} else {
			basis[i] = n + i
		}
		tab[i] = row
	}

	iters := maxIters

	// Phase 1: minimize the sum of artificial variables.
	if numArt > 0 {
		obj := make([]float64, cols)
		lastCol := n + m + numArt
		phase1Price(tab, obj, basis, n+m, lastCol)
		st := pivotLoop(tab, obj, basis, rhs, lastCol, &iters)
		// Rounding over hundreds of pivots lets the objective row drift
		// from the tableau: the loop can stop short of a feasible point,
		// or enter a column whose reduced cost is noise and call the
		// bounded phase-1 program unbounded. Price the row again from the
		// tableau before any infeasible verdict, and go on pivoting while
		// a column can enter, until the fresh row itself makes no pivot.
		for st != IterLimit && -obj[rhs] > 1e-7 && phase1Price(tab, obj, basis, n+m, lastCol) {
			left := iters
			if st = pivotLoop(tab, obj, basis, rhs, lastCol, &iters); st == Unbounded && iters == left-1 {
				break
			}
		}
		if st == IterLimit {
			return Result{Status: IterLimit}
		}
		if -obj[rhs] > 1e-7 { // phase-1 objective value is -obj[rhs]
			// The slack columns' reduced costs are the Farkas multipliers
			// of the rows; a drifted tableau gives ones that fail.
			if farkas(p, obj[n:n+m]) {
				return Result{Status: Infeasible}
			}
			return Result{Status: IterLimit}
		}
		// Drive any remaining basic artificials out of the basis.
		for i := 0; i < m; i++ {
			if basis[i] >= n+m {
				pivoted := false
				for j := 0; j < n+m; j++ {
					if math.Abs(tab[i][j]) > eps {
						pivot(tab, obj, basis, i, j)
						pivoted = true
						break
					}
				}
				if !pivoted {
					// Redundant row; harmless to leave (rhs is ~0).
					continue
				}
			}
		}
	}

	// Phase 2: minimize the real objective over columns [0, n+m).
	obj := make([]float64, cols)
	for j := 0; j < n; j++ {
		obj[j] = p.C[j]
	}
	// Price out basic variables.
	for i := 0; i < m; i++ {
		bj := basis[i]
		if bj < len(obj) && math.Abs(obj[bj]) > eps {
			coef := obj[bj]
			for j := 0; j < cols; j++ {
				obj[j] -= coef * tab[i][j]
			}
		}
	}
	st := pivotLoop(tab, obj, basis, rhs, n+m, &iters)
	switch st {
	case IterLimit:
		return Result{Status: IterLimit}
	case Unbounded:
		return Result{Status: Unbounded}
	}
	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = tab[i][rhs]
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.C[j] * x[j]
	}
	return Result{Status: Optimal, X: x, Objective: objVal}
}

// phase1Price sets obj to the phase-1 reduced costs under the current
// basis: unit costs on the artificial columns [firstArt, lastCol), less
// the row of every basic artificial. A reduced cost in (−1e-7, 0) is
// rounding noise and is set to 0, so no such column enters. It reports
// whether a column before lastCol can enter, that is, whether pivoting
// can go on.
func phase1Price(tab [][]float64, obj []float64, basis []int, firstArt, lastCol int) bool {
	clear(obj)
	for c := firstArt; c < lastCol; c++ {
		obj[c] = 1
	}
	for i, bj := range basis {
		if bj >= firstArt {
			for j, v := range tab[i] {
				obj[j] -= v
			}
		}
	}
	more := false
	for j, v := range obj[:lastCol] {
		if v <= -1e-7 {
			more = true
		} else if v < 0 {
			obj[j] = 0
		}
	}
	return more
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

// pivotLoop runs simplex pivots until optimality, unboundedness, or the
// iteration budget is exhausted. Columns at index ≥ lastCol (artificials in
// phase 2) are never chosen to enter. Bland's rule (smallest eligible
// index) guarantees termination in exact arithmetic.
func pivotLoop(tab [][]float64, obj []float64, basis []int, rhs, lastCol int, iters *int) Status {
	m := len(tab)
	for {
		if *iters <= 0 {
			return IterLimit
		}
		*iters--
		// Entering column: Bland's rule.
		enter := -1
		for j := 0; j < lastCol; j++ {
			if obj[j] < -eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Leaving row: minimum ratio, ties by smallest basis index.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][enter]
			if a > eps {
				ratio := tab[i][rhs] / a
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		pivot(tab, obj, basis, leave, enter)
	}
}

// pivot performs a full Gauss–Jordan pivot at (row, col).
func pivot(tab [][]float64, obj []float64, basis []int, row, col int) {
	p := tab[row][col]
	for j := range tab[row] {
		tab[row][j] /= p
	}
	tab[row][col] = 1 // exact
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if math.Abs(f) <= eps {
			tab[i][col] = 0
			continue
		}
		for j := range tab[i] {
			tab[i][j] -= f * tab[row][j]
		}
		tab[i][col] = 0
	}
	f := obj[col]
	if math.Abs(f) > eps {
		for j := range obj {
			obj[j] -= f * tab[row][j]
		}
	}
	obj[col] = 0
	basis[row] = col
}
