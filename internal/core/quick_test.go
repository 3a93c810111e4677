package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tels/internal/truth"
)

// unateFn is a generator-friendly description of a random unate function:
// per-variable phases plus a cube set. It implements quick.Generator so
// testing/quick drives the property tests below.
type unateFn struct {
	N      int
	Phases []bool   // true = negative phase
	Cubes  [][]bool // cube c uses variable i iff Cubes[c][i]
}

// Generate implements quick.Generator.
func (unateFn) Generate(rng *rand.Rand, _ int) reflect.Value {
	n := 2 + rng.Intn(4)
	f := unateFn{N: n, Phases: make([]bool, n)}
	for i := range f.Phases {
		f.Phases[i] = rng.Intn(2) == 1
	}
	for c := 0; c < 1+rng.Intn(4); c++ {
		cube := make([]bool, n)
		any := false
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				cube[i] = true
				any = true
			}
		}
		if any {
			f.Cubes = append(f.Cubes, cube)
		}
	}
	return reflect.ValueOf(f)
}

func (f unateFn) table() *truth.Table {
	tt := truth.New(f.N)
	if len(f.Cubes) == 0 {
		return tt
	}
	for m := 0; m < tt.Size(); m++ {
	cubes:
		for _, cube := range f.Cubes {
			for i := 0; i < f.N; i++ {
				if !cube[i] {
					continue
				}
				bitSet := m&(1<<uint(i)) != 0
				if bitSet == f.Phases[i] { // literal is false
					continue cubes
				}
			}
			tt.Set(m, true)
			break
		}
	}
	return tt
}

// Property: whenever Checker.Check reports a vector, that vector realizes
// the function exactly with the required δ margins.
func TestQuickCheckThresholdSound(t *testing.T) {
	var chk Checker
	prop := func(f unateFn) bool {
		tt := f.table()
		if isConst, _ := tt.IsConst(); isConst {
			return true
		}
		sup := tt.Support()
		if len(sup) != tt.N() {
			reduced := tt.Project(sup)
			tt = reduced
		}
		v, ok := chk.Check(tt, 0, 1, 0)
		if !ok {
			// Non-threshold verdicts are validated against the LP oracle
			// elsewhere; here soundness of positives is the property.
			return !IsThresholdLP(tt)
		}
		return VerifyVector(tt, v, 0, 1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the ILP objective never beats the LP relaxation and the
// returned weights of a positive-unate function are nonnegative.
func TestQuickPositiveUnateWeights(t *testing.T) {
	var chk Checker
	prop := func(f unateFn) bool {
		pos := f
		pos.Phases = make([]bool, f.N) // force all positive phases
		tt := pos.table()
		if isConst, _ := tt.IsConst(); isConst {
			return true
		}
		if len(tt.Support()) != tt.N() {
			tt = tt.Project(tt.Support())
		}
		v, ok := chk.Check(tt, 0, 1, 0)
		if !ok {
			return true
		}
		if v.T < 0 {
			return false
		}
		for _, w := range v.Weights {
			if w < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Theorem 1 — substituting x_i := !x_j in a threshold function
// leaves a threshold function (contrapositive of the paper's statement),
// checked via the LP oracle.
func TestQuickTheorem1(t *testing.T) {
	prop := func(f unateFn, iRaw, jRaw uint8) bool {
		tt := f.table()
		if isConst, _ := tt.IsConst(); isConst {
			return true
		}
		if !IsThresholdLP(tt) {
			return true
		}
		i := int(iRaw) % tt.N()
		j := int(jRaw) % tt.N()
		if i == j {
			return true
		}
		g := SubstituteLiteral(tt, i, j)
		if isConst, _ := g.IsConst(); isConst {
			return true
		}
		return IsThresholdLP(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the weight vector of a threshold function scales — doubling
// every weight and the threshold (plus margin slack) still realizes it.
func TestQuickVectorScaling(t *testing.T) {
	var chk Checker
	prop := func(f unateFn) bool {
		tt := f.table()
		if isConst, _ := tt.IsConst(); isConst {
			return true
		}
		if len(tt.Support()) != tt.N() {
			tt = tt.Project(tt.Support())
		}
		v, ok := chk.Check(tt, 0, 1, 0)
		if !ok {
			return true
		}
		scaled := WeightVector{Weights: make([]int, len(v.Weights)), T: 2 * v.T}
		for i, w := range v.Weights {
			scaled.Weights[i] = 2 * w
		}
		// Doubling doubles every margin, so the scaled vector satisfies
		// the original tolerances a fortiori.
		return VerifyVector(tt, scaled, 0, 1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
