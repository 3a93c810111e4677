package simplex

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// SolveExact runs the same two-phase primal simplex as Solve but in exact
// rational arithmetic (math/big.Rat): no tolerances, no rounding. It is
// the test oracle that Solve's float64 verdicts are checked against.
func SolveExact(p *Problem) Result {
	if err := p.Validate(); err != nil {
		return Result{Status: Infeasible}
	}
	n := len(p.C)
	m := len(p.A)
	if m == 0 {
		for _, c := range p.C {
			if c < 0 {
				return Result{Status: Unbounded}
			}
		}
		return Result{Status: Optimal, X: make([]float64, n)}
	}

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
	tab := make([][]*big.Rat, m)
	basis := make([]int, m)
	artOf := make([]int, m)
	for i := range artOf {
		artOf[i] = -1
	}
	artCol := n + m
	for i := 0; i < m; i++ {
		row := make([]*big.Rat, cols)
		for j := range row {
			row[j] = new(big.Rat)
		}
		sign := int64(1)
		if negRow[i] {
			sign = -1
		}
		for j := 0; j < n; j++ {
			row[j].SetFloat64(p.A[i][j])
			row[j].Mul(row[j], big.NewRat(sign, 1))
		}
		row[n+i].SetInt64(sign)
		row[rhs].SetFloat64(p.B[i])
		row[rhs].Mul(row[rhs], big.NewRat(sign, 1))
		if negRow[i] {
			row[artCol].SetInt64(1)
			basis[i] = artCol
			artOf[i] = artCol
			artCol++
		} else {
			basis[i] = n + i
		}
		tab[i] = row
	}

	iters := defaultIters

	if numArt > 0 {
		obj := newRatRow(cols)
		for i := 0; i < m; i++ {
			if artOf[i] >= 0 {
				for j := 0; j < cols; j++ {
					obj[j].Sub(obj[j], tab[i][j])
				}
			}
		}
		for c := n + m; c < n+m+numArt; c++ {
			obj[c].Add(obj[c], big.NewRat(1, 1))
		}
		st := exactPivotLoop(tab, obj, basis, rhs, n+m+numArt, &iters)
		if st == IterLimit {
			return Result{Status: IterLimit}
		}
		if obj[rhs].Sign() != 0 { // phase-1 optimum is -obj[rhs]
			return Result{Status: Infeasible}
		}
		for i := 0; i < m; i++ {
			if basis[i] >= n+m {
				for j := 0; j < n+m; j++ {
					if tab[i][j].Sign() != 0 {
						exactPivot(tab, obj, basis, i, j)
						break
					}
				}
			}
		}
	}

	obj := newRatRow(cols)
	for j := 0; j < n; j++ {
		obj[j].SetFloat64(p.C[j])
	}
	for i := 0; i < m; i++ {
		bj := basis[i]
		if bj < len(obj) && obj[bj].Sign() != 0 {
			coef := new(big.Rat).Set(obj[bj])
			for j := 0; j < cols; j++ {
				obj[j].Sub(obj[j], new(big.Rat).Mul(coef, tab[i][j]))
			}
		}
	}
	st := exactPivotLoop(tab, obj, basis, rhs, n+m, &iters)
	switch st {
	case IterLimit:
		return Result{Status: IterLimit}
	case Unbounded:
		return Result{Status: Unbounded}
	}
	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]], _ = tab[i][rhs].Float64()
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.C[j] * x[j]
	}
	return Result{Status: Optimal, X: x, Objective: objVal}
}

func newRatRow(n int) []*big.Rat {
	row := make([]*big.Rat, n)
	for i := range row {
		row[i] = new(big.Rat)
	}
	return row
}

func exactPivotLoop(tab [][]*big.Rat, obj []*big.Rat, basis []int, rhs, lastCol int, iters *int) Status {
	m := len(tab)
	for {
		if *iters <= 0 {
			return IterLimit
		}
		*iters--
		enter := -1
		for j := 0; j < lastCol; j++ { // Bland's rule
			if obj[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return Optimal
		}
		leave := -1
		var bestRatio *big.Rat
		for i := 0; i < m; i++ {
			if tab[i][enter].Sign() > 0 {
				ratio := new(big.Rat).Quo(tab[i][rhs], tab[i][enter])
				switch {
				case leave < 0 || ratio.Cmp(bestRatio) < 0:
					bestRatio = ratio
					leave = i
				case ratio.Cmp(bestRatio) == 0 && basis[i] < basis[leave]:
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		exactPivot(tab, obj, basis, leave, enter)
	}
}

func exactPivot(tab [][]*big.Rat, obj []*big.Rat, basis []int, row, col int) {
	pv := new(big.Rat).Set(tab[row][col])
	for j := range tab[row] {
		tab[row][j].Quo(tab[row][j], pv)
	}
	for i := range tab {
		if i == row || tab[i][col].Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(tab[i][col])
		for j := range tab[i] {
			tab[i][j].Sub(tab[i][j], new(big.Rat).Mul(f, tab[row][j]))
		}
	}
	if obj[col].Sign() != 0 {
		f := new(big.Rat).Set(obj[col])
		for j := range obj {
			obj[j].Sub(obj[j], new(big.Rat).Mul(f, tab[row][j]))
		}
	}
	basis[row] = col
}

// The exact rational solver must agree with the float64 solver on status
// and objective across random problems.
func TestExactAgreesWithFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 250; iter++ {
		n := 2 + rng.Intn(3)
		m := 1 + rng.Intn(4)
		p := &Problem{C: make([]float64, n)}
		for j := range p.C {
			p.C[j] = float64(rng.Intn(5))
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(rng.Intn(9) - 4)
			}
			p.A = append(p.A, row)
			p.B = append(p.B, float64(rng.Intn(9)-4))
		}
		fl := Solve(p)
		ex := SolveExact(p)
		if fl.Status != ex.Status {
			t.Fatalf("iter %d: status float=%v exact=%v (p=%+v)", iter, fl.Status, ex.Status, p)
		}
		if fl.Status == Optimal && math.Abs(fl.Objective-ex.Objective) > 1e-6 {
			t.Fatalf("iter %d: objective float=%v exact=%v (p=%+v)", iter, fl.Objective, ex.Objective, p)
		}
	}
}

func TestExactBasicCases(t *testing.T) {
	// min x+y s.t. x+y >= 3.
	p := &Problem{C: []float64{1, 1}, A: [][]float64{{-1, -1}}, B: []float64{-3}}
	res := SolveExact(p)
	if res.Status != Optimal || math.Abs(res.Objective-3) > 1e-12 {
		t.Fatalf("res = %+v", res)
	}
	// Infeasible.
	q := &Problem{C: []float64{1}, A: [][]float64{{1}, {-1}}, B: []float64{1, -2}}
	if res := SolveExact(q); res.Status != Infeasible {
		t.Fatalf("status = %v", res.Status)
	}
	// Unbounded.
	u := &Problem{C: []float64{-1}, A: [][]float64{{-1}}, B: []float64{-1}}
	if res := SolveExact(u); res.Status != Unbounded {
		t.Fatalf("status = %v", res.Status)
	}
	// No constraints.
	if res := SolveExact(&Problem{C: []float64{2}}); res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
}
