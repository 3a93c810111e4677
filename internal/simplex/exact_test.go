package simplex

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// SolveExact runs a two-phase primal simplex in exact rational
// arithmetic (math/big.Rat): no tolerances, no rounding. It is the test
// oracle that Solve's float64 verdicts are checked against, and it is a
// different algorithm from Solve's dual simplex (artificial variables,
// phase 1, primal Bland pivots), so agreement is an independent check.
// Like Solve it takes only nonnegative costs, so phase 2 is bounded.
func SolveExact(p *Problem) Result {
	if err := p.Validate(); err != nil {
		return Result{Status: IterLimit}
	}
	n := len(p.C)
	m := len(p.A)

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

	iters := maxPivots

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
	if exactPivotLoop(tab, obj, basis, rhs, n+m, &iters) == IterLimit {
		return Result{Status: IterLimit}
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
			// Both phases minimize a nonnegative objective.
			panic("simplex: exact phase unbounded")
		}
		exactPivot(tab, obj, basis, leave, enter)
	}
}

func exactPivot(tab [][]*big.Rat, obj []*big.Rat, basis []int, row, col int) {
	pv := new(big.Rat).Set(tab[row][col])
	var nz []int // the pivot row's nonzero columns; the rest change nothing
	for j, v := range tab[row] {
		if v.Sign() != 0 {
			v.Quo(v, pv)
			nz = append(nz, j)
		}
	}
	var f, prod big.Rat
	eliminate := func(r []*big.Rat) {
		if r[col].Sign() == 0 {
			return
		}
		f.Set(r[col])
		for _, j := range nz {
			r[j].Sub(r[j], prod.Mul(&f, tab[row][j]))
		}
	}
	for i := range tab {
		if i != row {
			eliminate(tab[i])
		}
	}
	eliminate(obj)
	basis[row] = col
}

// The exact rational solver must agree with the float64 solver on status
// and objective across random problems, and across problems shaped like
// the threshold checks Solve serves.
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
		agree(t, iter, p)
	}
	for iter := 0; iter < 12; iter++ {
		agree(t, iter, checkShaped(rng))
	}
}

func agree(t *testing.T, iter int, p *Problem) {
	t.Helper()
	fl := Solve(p)
	ex := SolveExact(p)
	if fl.Status != ex.Status {
		t.Fatalf("iter %d: status float=%v exact=%v (p=%+v)", iter, fl.Status, ex.Status, p)
	}
	if fl.Status == Optimal && math.Abs(fl.Objective-ex.Objective) > 1e-6 {
		t.Fatalf("iter %d: objective float=%v exact=%v (p=%+v)", iter, fl.Objective, ex.Objective, p)
	}
}

// checkShaped draws the LP of a threshold check on 8 or 9 inputs: unit
// costs, weights w₀…w_{k−1} and the threshold T as variables, and one
// row per sampled minterm of a positive-unate function f, over 100 of
// them: −Σ_{i∈m} wᵢ + T ≤ −δon for an ON minterm and Σ_{i∈m} wᵢ − T ≤
// −δoff for an OFF one. Half the functions are threshold (weights in
// 1..20), so every sample is feasible. The other half are c₁ ∨ c₂ for
// disjoint cubes of 2 or 3 variables; with cᵢ = {aᵢ} ∪ bᵢ, the ON
// minterms c₁, c₂ and the OFF minterms a₁∪b₂, a₂∪b₁ have equal weight
// sums, so their four rows, always included, make the LP infeasible.
func checkShaped(rng *rand.Rand) *Problem {
	k := 8 + rng.Intn(2)
	var f func(m int) bool
	var rows []int
	if rng.Intn(2) == 0 {
		w := make([]int, k)
		hi := 0
		for i := range w {
			w[i] = 1 + rng.Intn(20)
			hi += w[i]
		}
		T := 1 + rng.Intn(hi)
		f = func(m int) bool {
			sum := 0
			for i, wi := range w {
				if m>>i&1 != 0 {
					sum += wi
				}
			}
			return sum >= T
		}
	} else {
		v := rng.Perm(k)
		s1, s2 := 2+rng.Intn(2), 2+rng.Intn(2)
		c1, c2 := 0, 0
		for _, i := range v[:s1] {
			c1 |= 1 << i
		}
		for _, i := range v[s1 : s1+s2] {
			c2 |= 1 << i
		}
		a1, a2 := 1<<v[0], 1<<v[s1]
		f = func(m int) bool { return m&c1 == c1 || m&c2 == c2 }
		rows = []int{c1, c2, a1 | c2&^a2, a2 | c1&^a1}
	}
	rows = append(rows, rng.Perm(1 << k)[:101+rng.Intn(60)]...)
	don, doff := float64(rng.Intn(3)), float64(1+rng.Intn(2))
	p := &Problem{C: make([]float64, k+1)}
	for j := range p.C {
		p.C[j] = 1
	}
	for _, m := range rows {
		row := make([]float64, k+1)
		sign, b := -1.0, -don
		if !f(m) {
			sign, b = 1, -doff
		}
		for i := 0; i < k; i++ {
			if m>>i&1 != 0 {
				row[i] = sign
			}
		}
		row[k] = -sign
		p.AddConstraint(row, b)
	}
	return p
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
	// No constraints.
	if res := SolveExact(&Problem{C: []float64{2}}); res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
}
