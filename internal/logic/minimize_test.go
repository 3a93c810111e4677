package logic

import (
	"math/rand"
	"testing"
)

func TestMinimizeEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 400; iter++ {
		n := 2 + rng.Intn(5)
		f := randomCover(rng, n, 1+rng.Intn(6))
		g := f.Minimize()
		if !f.Equivalent(g) {
			t.Fatalf("iter %d: Minimize changed the function: %v -> %v", iter, f, g)
		}
	}
}

func TestMinimizeCubesArePrime(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(4)
		f := randomCover(rng, n, 1+rng.Intn(5))
		g := f.Minimize()
		for _, c := range g.Cubes {
			for i, p := range c {
				if p == DC {
					continue
				}
				// Raising any literal must leave the ON-set.
				bigger := NewCover(n)
				bigger.AddCube(c.Without(i))
				if bigger.Complement().Or(f).Tautology() {
					t.Fatalf("iter %d: cube %v of %v is not prime (position %d liftable)",
						iter, c, g, i)
				}
			}
		}
	}
}

func TestMinimizeIrredundant(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(4)
		f := randomCover(rng, n, 1+rng.Intn(5))
		g := f.Minimize()
		for drop := range g.Cubes {
			smaller := NewCover(n)
			for j, c := range g.Cubes {
				if j != drop {
					smaller.AddCube(c)
				}
			}
			if smaller.Equivalent(g) {
				t.Fatalf("iter %d: cube %d of %v is redundant", iter, drop, g)
			}
		}
	}
}

func TestMinimizeClassicAbsorption(t *testing.T) {
	// xy + x!y = x; the pair must collapse to the single prime x.
	f := MustCover("11", "10")
	g := f.Minimize()
	if len(g.Cubes) != 1 || g.Cubes[0].String() != "1-" {
		t.Fatalf("Minimize(xy + x!y) = %v, want 1-", g)
	}
	// Consensus: xy + !xz + yz -> the yz term is redundant.
	h := MustCover("11-", "0-1", "-11").Minimize()
	if len(h.Cubes) != 2 {
		t.Fatalf("Minimize(xy + !xz + yz) = %v, want 2 cubes", h)
	}
}

func TestMinimizeConstants(t *testing.T) {
	if got := Zero(3).Minimize(); !got.IsZero() {
		t.Fatalf("Minimize(0) = %v", got)
	}
	one := MustCover("1--", "0--")
	got := one.Minimize()
	if !got.Tautology() {
		t.Fatalf("Minimize(x + !x) = %v, not tautology", got)
	}
	if len(got.Cubes) != 1 || !got.Cubes[0].IsUniverse() {
		t.Fatalf("Minimize(x + !x) = %v, want the universal cube", got)
	}
}

func TestCoverContainsCube(t *testing.T) {
	f := MustCover("1--", "01-")
	if !coverContainsCube(f, MustParseCube("11-")) {
		t.Fatal("11- is inside x + !x y")
	}
	if coverContainsCube(f, MustParseCube("00-")) {
		t.Fatal("00- is not covered")
	}
}

func TestReducePreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(4)
		f := randomCover(rng, n, 1+rng.Intn(5)).SCC()
		g := f.reduce()
		if !f.Equivalent(g) {
			t.Fatalf("iter %d: reduce changed the function: %v -> %v", iter, f, g)
		}
	}
}

func TestSupercube(t *testing.T) {
	f := MustCover("110", "100")
	if got := supercube(f).String(); got != "1-0" {
		t.Fatalf("supercube = %q, want 1-0", got)
	}
	g := MustCover("101")
	if got := supercube(g).String(); got != "101" {
		t.Fatalf("supercube of one cube = %q", got)
	}
}

func TestMinimizeEspressoLoopNoWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for iter := 0; iter < 150; iter++ {
		n := 2 + rng.Intn(4)
		f := randomCover(rng, n, 1+rng.Intn(6))
		g := f.Minimize()
		scc := f.SCC()
		if g.LiteralCount() > scc.LiteralCount() && len(g.Cubes) > len(scc.Cubes) {
			t.Fatalf("iter %d: Minimize made both metrics worse: %v -> %v", iter, scc, g)
		}
		if !f.Equivalent(g) {
			t.Fatalf("iter %d: Minimize changed the function", iter)
		}
	}
}

// randomUnateCover returns up to maxCubes random cubes over n variables in
// which each variable keeps one phase, positive or negative, or is left
// out: a syntactically unate cover.
func randomUnateCover(rng *rand.Rand, n, maxCubes int) Cover {
	phase := make([]Phase, n)
	for i := range phase {
		phase[i] = [3]Phase{Pos, Neg, DC}[rng.Intn(3)]
	}
	f := NewCover(n)
	den := 2 + rng.Intn(3)
	for c := 1 + rng.Intn(maxCubes); c > 0; c-- {
		cube := NewCube(n)
		for i, p := range phase {
			if rng.Intn(den) == 0 {
				cube[i] = p
			}
		}
		f.AddCube(cube)
	}
	return f
}

// checkUnateShortcut checks Minimize on a syntactically unate cover
// against the full espresso loop it skips: the same cubes in the same
// order.
func checkUnateShortcut(t *testing.T, f Cover) {
	t.Helper()
	g := f.SCC()
	if g.mostBinate() >= 0 {
		t.Fatalf("%v is not syntactically unate", f)
	}
	want := g
	if len(g.Cubes) > 1 {
		want = g.espresso()
	}
	if got := f.Minimize(); got.N != want.N || got.String() != want.String() {
		t.Fatalf("Minimize(%v) = %v, the espresso loop gives %v", f, got, want)
	}
}

func TestMinimizeUnateShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 3000; iter++ {
		checkUnateShortcut(t, randomUnateCover(rng, 1+rng.Intn(9), 1+rng.Intn(12)))
	}
}

// TestMinimizeUnateAllocs bounds the allocations of Minimize on a
// 21-variable, 35-cube positive-unate cover, the shape of the wide nodes
// the boolean script minimizes. The shortcut allocates for SCC and one
// usage count; the espresso loop, which builds the complement, allocates
// thousands of times more.
func TestMinimizeUnateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	f := NewCover(21)
	for len(f.Cubes) < 35 {
		c := NewCube(21)
		for _, i := range rng.Perm(21)[:2+rng.Intn(4)] {
			c[i] = Pos
		}
		f.AddCube(c)
		f = f.SCC()
	}
	if allocs := testing.AllocsPerRun(5, func() { f.Minimize() }); allocs > 64 {
		t.Fatalf("Minimize on a 35-cube unate cover allocates %.0f times, want at most 64", allocs)
	}
}
