package core

import (
	"math/rand"
	"testing"

	"tels/internal/ilp"
	"tels/internal/truth"
)

func TestPaperWorkedExample(t *testing.T) {
	// §V-B: f = x1!x2 + x1!x3 has vector <2,-1,-1;1> with δon=0, δoff=1.
	f := truth.Var(3, 0).And(truth.Var(3, 1).Not()).
		Or(truth.Var(3, 0).And(truth.Var(3, 2).Not()))
	var solver ilp.Solver
	v, ok := CheckThreshold(f, 0, 1, &solver)
	if !ok {
		t.Fatal("f should be threshold")
	}
	if v.Weights[0] != 2 || v.Weights[1] != -1 || v.Weights[2] != -1 || v.T != 1 {
		t.Fatalf("vector = %v;%d, want <2,-1,-1;1>", v.Weights, v.T)
	}
	if !VerifyVector(f, v, 0, 1) {
		t.Fatal("vector does not verify")
	}
}

func TestPaperPositiveForm(t *testing.T) {
	// g = x1y2 + x1y3 (positive form) has vector <2,1,1;3>.
	g := truth.Var(3, 0).And(truth.Var(3, 1)).
		Or(truth.Var(3, 0).And(truth.Var(3, 2)))
	var solver ilp.Solver
	v, ok := CheckThreshold(g, 0, 1, &solver)
	if !ok {
		t.Fatal("g should be threshold")
	}
	if v.Weights[0] != 2 || v.Weights[1] != 1 || v.Weights[2] != 1 || v.T != 3 {
		t.Fatalf("vector = %v;%d, want <2,1,1;3>", v.Weights, v.T)
	}
}

func TestNonThreshold2of4(t *testing.T) {
	// f = x1x2 + x3x4 is the canonical non-threshold unate function.
	f := truth.Var(4, 0).And(truth.Var(4, 1)).
		Or(truth.Var(4, 2).And(truth.Var(4, 3)))
	var solver ilp.Solver
	if _, ok := CheckThreshold(f, 0, 1, &solver); ok {
		t.Fatal("x1x2+x3x4 must not be threshold")
	}
	if IsThresholdLP(f) {
		t.Fatal("LP oracle disagrees: x1x2+x3x4 must not be threshold")
	}
}

func TestBinateRejected(t *testing.T) {
	x := truth.Var(2, 0).Xor(truth.Var(2, 1))
	var solver ilp.Solver
	if _, ok := CheckThreshold(x, 0, 1, &solver); ok {
		t.Fatal("xor must not be threshold")
	}
	if IsThresholdLP(x) {
		t.Fatal("LP oracle: xor must not be threshold")
	}
}

func TestSimpleGatesAreThreshold(t *testing.T) {
	var solver ilp.Solver
	cases := []struct {
		name string
		fn   *truth.Table
	}{
		{"and3", truth.Var(3, 0).And(truth.Var(3, 1)).And(truth.Var(3, 2))},
		{"or3", truth.Var(3, 0).Or(truth.Var(3, 1)).Or(truth.Var(3, 2))},
		{"nand2", truth.Var(2, 0).And(truth.Var(2, 1)).Not()},
		{"nor2", truth.Var(2, 0).Or(truth.Var(2, 1)).Not()},
		{"inv", truth.Var(1, 0).Not()},
		{"buf", truth.Var(1, 0)},
		{"maj3", majority3()},
		{"aoi", truth.Var(3, 0).And(truth.Var(3, 1)).Or(truth.Var(3, 2))},
	}
	for _, tc := range cases {
		for deltaOn := 0; deltaOn <= 2; deltaOn++ {
			v, ok := CheckThreshold(tc.fn, deltaOn, 1, &solver)
			if !ok {
				t.Errorf("%s (δon=%d): not threshold", tc.name, deltaOn)
				continue
			}
			if !VerifyVector(tc.fn, v, deltaOn, 1) {
				t.Errorf("%s (δon=%d): vector %v;%d fails verification", tc.name, deltaOn, v.Weights, v.T)
			}
		}
	}
}

func majority3() *truth.Table {
	a, b, c := truth.Var(3, 0), truth.Var(3, 1), truth.Var(3, 2)
	return a.And(b).Or(a.And(c)).Or(b.And(c))
}

func TestMajorityWeights(t *testing.T) {
	var solver ilp.Solver
	v, ok := CheckThreshold(majority3(), 0, 1, &solver)
	if !ok {
		t.Fatal("majority must be threshold")
	}
	// Unit weights with T=2 satisfy δoff=1 (a single input sums to
	// 1 = T−1, two inputs reach T); the solution must stay symmetric.
	if v.Weights[0] != v.Weights[1] || v.Weights[1] != v.Weights[2] {
		t.Fatalf("majority weights not symmetric: %v", v.Weights)
	}
	if !VerifyVector(majority3(), v, 0, 1) {
		t.Fatal("majority vector fails")
	}
}

// Exhaustive agreement with the LP separability oracle on every function
// of up to 4 variables that is unate with full support.
func TestCheckAgainstOracleExhaustive(t *testing.T) {
	var solver ilp.Solver
	for n := 1; n <= 4; n++ {
		size := 1 << uint(n)
		total := 1 << uint(size)
		if n == 4 {
			// 65536 functions; still fast enough, but sample every third
			// to keep the test snappy.
			total = 1 << 16
		}
		step := 1
		if n == 4 {
			step = 3
		}
		for code := 0; code < total; code += step {
			tt := truth.New(n)
			for m := 0; m < size; m++ {
				tt.Set(m, code&(1<<uint(m)) != 0)
			}
			if isConst, _ := tt.IsConst(); isConst {
				continue
			}
			if len(tt.Support()) != n || !tt.IsUnate() {
				continue
			}
			want := IsThresholdLP(tt)
			v, got := CheckThreshold(tt, 0, 1, &solver)
			if got != want {
				t.Fatalf("n=%d code=%x: CheckThreshold=%v oracle=%v", n, code, got, want)
			}
			if got && !VerifyVector(tt, v, 0, 1) {
				t.Fatalf("n=%d code=%x: vector %v;%d fails verification", n, code, v.Weights, v.T)
			}
		}
	}
}

// Random 5- and 6-variable unate functions against the oracle.
func TestCheckAgainstOracleRandom(t *testing.T) {
	var solver ilp.Solver
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 150; iter++ {
		n := 5 + rng.Intn(2)
		tt := randomUnate(rng, n)
		if isConst, _ := tt.IsConst(); isConst {
			continue
		}
		if len(tt.Support()) != n {
			continue
		}
		want := IsThresholdLP(tt)
		v, got := CheckThreshold(tt, 0, 1, &solver)
		if got != want {
			t.Fatalf("iter %d: CheckThreshold=%v oracle=%v (f=%s)", iter, got, want, tt)
		}
		if got && !VerifyVector(tt, v, 0, 1) {
			t.Fatalf("iter %d: bad vector", iter)
		}
	}
}

// randomUnate builds a random positive-unate-with-random-phases function
// as an OR of random cubes with fixed per-variable phases.
func randomUnate(rng *rand.Rand, n int) *truth.Table {
	phases := make([]bool, n) // true = negative phase
	for i := range phases {
		phases[i] = rng.Intn(2) == 1
	}
	f := truth.New(n)
	cubes := 1 + rng.Intn(4)
	for c := 0; c < cubes; c++ {
		cube := truth.Const(n, true)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				v := truth.Var(n, i)
				if phases[i] {
					v = v.Not()
				}
				cube = cube.And(v)
			}
		}
		f = f.Or(cube)
	}
	return f
}

// Defect-tolerance margins: vectors found with larger δon must keep larger
// separation, and area must not decrease.
func TestDefectToleranceMargins(t *testing.T) {
	var solver ilp.Solver
	f := majority3()
	prevArea := 0
	for deltaOn := 0; deltaOn <= 3; deltaOn++ {
		v, ok := CheckThreshold(f, deltaOn, 1, &solver)
		if !ok {
			t.Fatalf("δon=%d: not threshold", deltaOn)
		}
		if !VerifyVector(f, v, deltaOn, 1) {
			t.Fatalf("δon=%d: margin violated", deltaOn)
		}
		area := v.T
		if area < 0 {
			area = -area
		}
		for _, w := range v.Weights {
			if w < 0 {
				area -= w
			} else {
				area += w
			}
		}
		if area < prevArea {
			t.Fatalf("δon=%d: area %d decreased from %d", deltaOn, area, prevArea)
		}
		prevArea = area
	}
}

func TestTheorem1(t *testing.T) {
	// f = x1x2 + x3x4; substitute x3 := !x1 gives g = x1x2 + !x1x4, which
	// is binate in x1, hence non-threshold; Theorem 1 concludes f is not
	// threshold. Both facts verified exactly.
	f := truth.Var(4, 0).And(truth.Var(4, 1)).
		Or(truth.Var(4, 2).And(truth.Var(4, 3)))
	g := SubstituteLiteral(f, 2, 0)
	if g.VarUnateness(0) != truth.Binate {
		t.Fatal("g should be binate in x1")
	}
	if IsThresholdLP(g) {
		t.Fatal("g must not be threshold")
	}
	if IsThresholdLP(f) {
		t.Fatal("f must not be threshold (Theorem 1)")
	}
}

// Theorem 1 as a property: for random unate threshold f, every literal
// substitution must yield a threshold g (contrapositive of the theorem).
func TestTheorem1Property(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked := 0
	for iter := 0; iter < 400 && checked < 60; iter++ {
		n := 3 + rng.Intn(2)
		f := randomUnate(rng, n)
		if isConst, _ := f.IsConst(); isConst {
			continue
		}
		if !IsThresholdLP(f) {
			continue
		}
		checked++
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				g := SubstituteLiteral(f, i, j)
				if isConst, _ := g.IsConst(); isConst {
					continue
				}
				if !IsThresholdLP(g) {
					t.Fatalf("Theorem 1 violated: f=%s threshold but g (x%d:=!x%d) is not", f, i, j)
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d threshold functions sampled", checked)
	}
}

func TestTheorem2Constructive(t *testing.T) {
	var solver ilp.Solver
	rng := rand.New(rand.NewSource(88))
	checked := 0
	for iter := 0; iter < 300 && checked < 50; iter++ {
		n := 2 + rng.Intn(3)
		f := randomUnate(rng, n)
		if isConst, _ := f.IsConst(); isConst || len(f.Support()) != n {
			continue
		}
		// Need positive-unate f for the constructive vector.
		pos := true
		for i := 0; i < n; i++ {
			if f.VarUnateness(i) == truth.NegUnate {
				pos = false
				break
			}
		}
		if !pos {
			continue
		}
		v, ok := CheckThreshold(f, 0, 1, &solver)
		if !ok {
			continue
		}
		checked++
		// h = f ∨ x_{n+1} with the constructive vector of Theorem 2.
		h := truth.New(n + 1)
		for m := 0; m < h.Size(); m++ {
			h.Set(m, f.Get(m&((1<<uint(n))-1)) || m&(1<<uint(n)) != 0)
		}
		hv := Theorem2Vector(v, 0)
		if !VerifyVector(h, hv, 0, 1) {
			t.Fatalf("Theorem 2 constructive vector fails: f=%s v=%v;%d", f, v.Weights, v.T)
		}
		// And the ILP agrees h is threshold.
		if _, ok := CheckThreshold(h, 0, 1, &solver); !ok {
			t.Fatalf("ILP says f∨x not threshold for threshold f=%s", f)
		}
	}
	if checked < 15 {
		t.Fatalf("only %d cases checked", checked)
	}
}

func TestTheorem2PaperExample(t *testing.T) {
	// §IV: f = x1!x2 is threshold with <1,-1;1> (pos form <1,1;2>);
	// h = x1!x2 + x3 is threshold with <1,-1,2;1>.
	h := truth.Var(3, 0).And(truth.Var(3, 1).Not()).Or(truth.Var(3, 2))
	var solver ilp.Solver
	v, ok := CheckThreshold(h, 0, 1, &solver)
	if !ok {
		t.Fatal("x1!x2+x3 should be threshold")
	}
	if !VerifyVector(h, v, 0, 1) {
		t.Fatal("vector fails")
	}
	// The paper's constructive vector also verifies.
	paper := WeightVector{Weights: []int{1, -1, 2}, T: 1}
	if !VerifyVector(h, paper, 0, 1) {
		t.Fatal("paper's vector <1,-1,2;1> fails verification")
	}
}
