package logic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randomCover(rng *rand.Rand, n, maxCubes int) Cover {
	f := NewCover(n)
	cubes := 1 + rng.Intn(maxCubes)
	for i := 0; i < cubes; i++ {
		c := NewCube(n)
		for j := 0; j < n; j++ {
			c[j] = Phase(rng.Intn(3))
		}
		f.AddCube(c)
	}
	return f
}

func evalAll(f Cover) []bool {
	out := make([]bool, 1<<uint(f.N))
	assign := make([]bool, f.N)
	for m := range out {
		for i := 0; i < f.N; i++ {
			assign[i] = m&(1<<uint(i)) != 0
		}
		out[m] = f.Eval(assign)
	}
	return out
}

func TestCoverEval(t *testing.T) {
	f := MustCover("11-", "--1")
	cases := []struct {
		assign []bool
		want   bool
	}{
		{[]bool{true, true, false}, true},
		{[]bool{false, false, true}, true},
		{[]bool{true, false, false}, false},
		{[]bool{false, false, false}, false},
	}
	for _, tc := range cases {
		if got := f.Eval(tc.assign); got != tc.want {
			t.Errorf("Eval(%v) = %v, want %v", tc.assign, got, tc.want)
		}
	}
}

func TestSCC(t *testing.T) {
	f := MustCover("1--", "11-", "0-0", "1--")
	g := f.SCC()
	if len(g.Cubes) != 2 {
		t.Fatalf("SCC left %d cubes, want 2: %v", len(g.Cubes), g)
	}
	if !slices.Equal(evalAll(f), evalAll(g)) {
		t.Fatal("SCC changed the function")
	}
}

func TestUsageAndSupport(t *testing.T) {
	f := MustCover("1-0", "0-0")
	u := f.Usage()
	if u[0].Pos != 1 || u[0].Neg != 1 {
		t.Errorf("var 0 usage = %+v, want {1 1}", u[0])
	}
	if u[1].Total() != 0 {
		t.Errorf("var 1 usage = %+v, want empty", u[1])
	}
	if u[2].Neg != 2 || u[2].Pos != 0 {
		t.Errorf("var 2 usage = %+v, want {0 2}", u[2])
	}
	sup := f.Support()
	if len(sup) != 2 || sup[0] != 0 || sup[1] != 2 {
		t.Errorf("Support = %v, want [0 2]", sup)
	}
}

func TestMinterms(t *testing.T) {
	f := MustCover("11")
	m := f.Minterms()
	if len(m) != 1 || m[0] != 3 {
		t.Fatalf("Minterms = %v, want [3]", m)
	}
}

func TestQuickEquivalentSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 1 + r.Intn(4)
		cv := randomCover(r, n, 5)
		return slices.Equal(evalAll(cv), evalAll(cv.SCC()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Minterms returns the sorted list of minterm indices covered by f, by
// enumerating all 2^N assignments.
func (f Cover) Minterms() []int {
	var out []int
	assign := make([]bool, f.N)
	for m := 0; m < 1<<uint(f.N); m++ {
		for i := 0; i < f.N; i++ {
			assign[i] = m&(1<<uint(i)) != 0
		}
		if f.Eval(assign) {
			out = append(out, m)
		}
	}
	return out
}
