package logic

import (
	"math/rand"
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
	if !f.Equivalent(g) {
		t.Fatal("SCC changed the function")
	}
}

func TestTautology(t *testing.T) {
	cases := []struct {
		cover Cover
		want  bool
	}{
		{MustCover("---"), true},
		{MustCover("1--", "0--"), true},
		{MustCover("1-1", "1-0", "01-", "00-"), true},
		{MustCover("1--"), false},
		{MustCover("1--", "01-"), false},
		{Zero(3), false},
	}
	for i, tc := range cases {
		if got := tc.cover.Tautology(); got != tc.want {
			t.Errorf("case %d: Tautology(%v) = %v, want %v", i, tc.cover, got, tc.want)
		}
	}
}

func TestComplementSmall(t *testing.T) {
	f := MustCover("11-", "--1")
	g := f.Complement()
	fv, gv := evalAll(f), evalAll(g)
	for m := range fv {
		if fv[m] == gv[m] {
			t.Fatalf("complement agrees with function at minterm %d", m)
		}
	}
}

func TestComplementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(5)
		f := randomCover(rng, n, 6)
		g := f.Complement()
		fv, gv := evalAll(f), evalAll(g)
		for m := range fv {
			if fv[m] == gv[m] {
				t.Fatalf("iter %d: complement of %v wrong at minterm %d", iter, f, m)
			}
		}
	}
}

func TestAndOrProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(4)
		f := randomCover(rng, n, 4)
		g := randomCover(rng, n, 4)
		or := f.Or(g)
		fv, gv := evalAll(f), evalAll(g)
		ov := evalAll(or)
		for m := range fv {
			if ov[m] != (fv[m] || gv[m]) {
				t.Fatalf("iter %d: Or wrong at %d", iter, m)
			}
		}
	}
}

func TestEquivalent(t *testing.T) {
	f := MustCover("1-", "-1")
	g := MustCover("01", "10", "11")
	if !f.Equivalent(g) {
		t.Fatal("x+y should equal its minterm expansion")
	}
	h := MustCover("11")
	if f.Equivalent(h) {
		t.Fatal("x+y is not x*y")
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
	if f.IsSyntacticallyUnate() {
		t.Error("cover is binate in var 0")
	}
	if !MustCover("1-0", "-10").IsSyntacticallyUnate() {
		t.Error("cover should be syntactically unate")
	}
}

func TestMinterms(t *testing.T) {
	f := MustCover("11")
	m := f.Minterms()
	if len(m) != 1 || m[0] != 3 {
		t.Fatalf("Minterms = %v, want [3]", m)
	}
}

func TestExpr(t *testing.T) {
	f := MustCover("10", "-1")
	got := f.Expr([]string{"a", "b"})
	want := "a*!b + b"
	if got != want {
		t.Fatalf("Expr = %q, want %q", got, want)
	}
	if Zero(2).Expr([]string{"a", "b"}) != "0" {
		t.Fatal("Expr of empty cover should be 0")
	}
}

func TestQuickEquivalentSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 1 + r.Intn(4)
		cv := randomCover(r, n, 5)
		return cv.Equivalent(cv.SCC()) && cv.Equivalent(cv.Complement().Complement())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
