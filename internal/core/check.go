package core

import (
	"crypto/sha256"
	"encoding/binary"

	"tels/internal/logic"
	"tels/internal/simplex"
	"tels/internal/truth"
)

// WeightVector is the weight–threshold vector ⟨w₁,…,w_l;T⟩ of a threshold
// function.
type WeightVector struct {
	Weights []int
	T       int
}

// checkSystem is one threshold check in positive-unate form. The ON/OFF
// covers are derived only by problem(): exact prime generation over 2ⁿ
// minterms dwarfs the solve itself on wide functions, and the checker's
// proven-UNSAT results are keyed on pos alone, so a hit never pays for
// them.
type checkSystem struct {
	n       int
	flipped []bool       // variables substituted to reach positive-unate form
	pos     *truth.Table // positive-unate form (canonical across phases)
	don     int
	doff    int
	maxW    int
}

// buildCheckSystem normalizes tt to positive-unate form. ok is false for
// constants, binate functions, and functions with dead variables — the
// same early-outs the checker always had.
func buildCheckSystem(tt *truth.Table, deltaOn, deltaOff, maxWeight int) (*checkSystem, bool) {
	n := tt.N()
	if isConst, _ := tt.IsConst(); isConst {
		return nil, false // constants are handled by the caller
	}
	// Positive-unate transform: flip negative-unate variables.
	flipped := make([]bool, n)
	g := tt
	for i := 0; i < n; i++ {
		switch g.VarUnateness(i) {
		case truth.NegUnate:
			g = g.SubstituteNeg(i)
			flipped[i] = true
		case truth.Binate:
			return nil, false // threshold functions are unate
		case truth.Independent:
			return nil, false // caller must reduce support first
		}
	}
	return &checkSystem{
		n:       n,
		flipped: flipped,
		pos:     g,
		don:     deltaOn,
		doff:    deltaOff,
		maxW:    maxWeight,
	}, true
}

// problem derives the minimal ON and OFF covers and builds the
// simplex/ILP formulation of Checker.Check. Row order matches the
// original check exactly, so branch-and-bound traversal — and
// therefore the returned vector — is bit-identical to the historical
// behaviour.
func (sys *checkSystem) problem() *simplex.Problem {
	n := sys.n
	on := sys.pos.MinimalSOP().Cubes
	off := sys.pos.Not().MinimalSOP().Cubes
	// Variables 0..n-1 are the weights, n is the threshold.
	p := &simplex.Problem{C: make([]float64, n+1)}
	for i := range p.C {
		p.C[i] = 1
	}
	for _, c := range on {
		// -Σ_{lits} w + T ≤ -δon
		row := make([]float64, n+1)
		for i, ph := range c {
			if ph == logic.Pos {
				row[i] = -1
			}
		}
		row[n] = 1
		p.AddConstraint(row, -float64(sys.don))
	}
	for _, c := range off {
		// Σ_{dc} w - T ≤ -δoff
		row := make([]float64, n+1)
		for i, ph := range c {
			if ph == logic.DC {
				row[i] = 1
			}
		}
		row[n] = -1
		p.AddConstraint(row, -float64(sys.doff))
	}
	if sys.maxW > 0 {
		// Bound the input weights only: the threshold is realized by the
		// clocked driver RTD, whose sizing is independent of the input
		// branches (a 2-input AND already needs T = δon+δoff+1).
		for i := 0; i < n; i++ {
			row := make([]float64, n+1)
			row[i] = 1
			p.AddConstraint(row, float64(sys.maxW))
		}
	}
	return p
}

// vector maps a positive-form solution x (weights 0..n-1, threshold at n)
// back to the original phases (§IV): a flipped variable's weight is
// negated and the threshold drops by the original (positive) weight.
func (sys *checkSystem) vector(x []int) WeightVector {
	weights := make([]int, sys.n)
	T := x[sys.n]
	for i := 0; i < sys.n; i++ {
		w := x[i]
		if sys.flipped[i] {
			weights[i] = -w
			T -= w
		} else {
			weights[i] = w
		}
	}
	return WeightVector{Weights: weights, T: T}
}

// digest is a canonical key of the check instance: the positive-unate
// table bits (identical across input phase flips) plus every parameter
// that influences the verdict. It keys a checker's proven-UNSAT results.
func (sys *checkSystem) digest() [32]byte {
	h := sha256.New()
	var hdr [4 * 8]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(sys.n))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(sys.don)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(int64(sys.doff)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(int64(sys.maxW)))
	h.Write(hdr[:])
	var w [8]byte
	for _, word := range sys.pos.Words() {
		binary.LittleEndian.PutUint64(w[:], word)
		h.Write(w[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// VerifyVector checks that the weight vector realizes tt exactly under the
// plain Σ ≥ T rule and respects the δon/δoff separation margins. Used by
// tests and the simulator's self-checks.
func VerifyVector(tt *truth.Table, v WeightVector, deltaOn, deltaOff int) bool {
	n := tt.N()
	if len(v.Weights) != n {
		return false
	}
	for m := 0; m < tt.Size(); m++ {
		sum := 0
		for i := 0; i < n; i++ {
			if m&(1<<uint(i)) != 0 {
				sum += v.Weights[i]
			}
		}
		if tt.Get(m) {
			if sum < v.T+deltaOn {
				return false
			}
		} else {
			if sum > v.T-deltaOff {
				return false
			}
		}
	}
	return true
}

// IsThresholdLP is an exact threshold-function oracle that does not use
// the cube formulation: it checks real-valued linear separability of all
// 2^l minterms directly (a function is threshold iff its ON and OFF sets
// are linearly separable; rational separability scales to integers).
// Weights may be negative here, so the LP uses a shifted encoding.
// Intended for tests and small functions.
func IsThresholdLP(tt *truth.Table) bool {
	n := tt.N()
	// Variables: w⁺_0..w⁺_{n-1}, w⁻_0..w⁻_{n-1}, T⁺, T⁻ with w = w⁺ − w⁻.
	nv := 2*n + 2
	p := &simplex.Problem{C: make([]float64, nv)}
	for i := range p.C {
		p.C[i] = 1
	}
	for m := 0; m < tt.Size(); m++ {
		row := make([]float64, nv)
		for i := 0; i < n; i++ {
			if m&(1<<uint(i)) != 0 {
				row[i] = 1
				row[n+i] = -1
			}
		}
		row[2*n] = -1
		row[2*n+1] = 1
		if tt.Get(m) {
			// Σw − T ≥ 0  →  −(Σw − T) ≤ 0
			neg := make([]float64, nv)
			for j := range row {
				neg[j] = -row[j]
			}
			p.AddConstraint(neg, 0)
		} else {
			// Σw − T ≤ −1 (strictly below threshold, scaled)
			p.AddConstraint(row, -1)
		}
	}
	res := simplex.Solve(p)
	return res.Status == simplex.Optimal
}
