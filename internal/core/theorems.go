package core

import (
	"tels/internal/truth"
)

// SubstituteLiteral implements the transformation of Theorem 1: in
// f(x₁,…,x_l), literal x_i is replaced by x̄_j (i ≠ j), producing a
// function g that no longer depends on x_i. Theorem 1 states that if g is
// not a threshold function then f is not either, which the synthesizer's
// exact unateness/ILP pipeline exploits implicitly and the tests verify
// explicitly. The returned table still has l variables; variable i is
// redundant.
func SubstituteLiteral(f *truth.Table, i, j int) *truth.Table {
	if i == j {
		panic("core: SubstituteLiteral requires i != j")
	}
	n := f.N()
	g := truth.New(n)
	for m := 0; m < g.Size(); m++ {
		src := m &^ (1 << uint(i))
		if m&(1<<uint(j)) == 0 { // x̄j = 1 -> xi = 1
			src |= 1 << uint(i)
		}
		g.Set(m, f.Get(src))
	}
	return g
}

// Theorem2Vector implements the constructive part of Theorem 2: given a
// weight–threshold vector for a positive-unate threshold function f, it
// returns the vector for h = f ∨ x_{l+1}, where the new input receives
// weight T + δon. The synthesizer itself re-derives minimal weights with
// the ILP; this constructive form is the theorem's witness, which the
// tests check.
func Theorem2Vector(v WeightVector, deltaOn int) WeightVector {
	w := append(append([]int(nil), v.Weights...), v.T+deltaOn)
	return WeightVector{Weights: w, T: v.T}
}
