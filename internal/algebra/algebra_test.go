package algebra

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tels/internal/logic"
	"tels/internal/truth"
)

// FromCover converts a positional cover into an algebraic expression.
func FromCover(f logic.Cover) Expr {
	e := make(Expr, 0, len(f.Cubes))
	for _, c := range f.Cubes {
		var cube Cube
		for v, ph := range c {
			if ph != logic.DC {
				cube = append(cube, MakeLit(v, ph))
			}
		}
		sort.Slice(cube, func(i, j int) bool { return cube[i] < cube[j] })
		e = append(e, cube)
	}
	return e
}

// ToCover converts the expression back to a positional cover over n
// variables. A cube containing both phases of a variable would be
// non-algebraic; it is dropped (it denotes the empty cube).
func (e Expr) ToCover(n int) logic.Cover {
	out := logic.NewCover(n)
nextCube:
	for _, cube := range e {
		c := logic.NewCube(n)
		for _, l := range cube {
			v, ph := l.Var(), l.Phase()
			if c[v] != logic.DC && c[v] != ph {
				continue nextCube
			}
			c[v] = ph
		}
		out.AddCube(c)
	}
	return out
}

// IsCubeFree reports whether no single literal divides every cube and the
// expression has more than one cube (a single cube is never cube-free).
func (e Expr) IsCubeFree() bool {
	if len(e) <= 1 {
		return false
	}
	return len(e.CommonCube()) == 0
}

// cubeKey encodes a cube as a string key: four big-endian bytes per
// literal, so distinct cubes below 2^31 get distinct keys that sort as
// the cubes compare literal by literal. With ExprKey it is the oracle of
// Compare's order.
func cubeKey(c Cube) string {
	b := make([]byte, 0, len(c)*4)
	for _, l := range c {
		b = append(b, byte(l>>24), byte(l>>16), byte(l>>8), byte(l))
	}
	return string(b)
}

// ExprKey encodes an expression as a string key that is the same for
// every cube order: the sorted cube keys, each closed by 0xff.
func ExprKey(e Expr) string {
	keys := make([]string, len(e))
	for i, c := range e {
		keys[i] = cubeKey(c)
	}
	sort.Strings(keys)
	b := make([]byte, 0, 16)
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, 0xff)
	}
	return string(b)
}

// sorted returns a copy of e with its cubes in ascending order.
func sorted(e Expr) Expr {
	s := slices.Clone(e)
	sortCubes(s)
	return s
}

// TestExprOrderMatchesByteKeys pins Compare to the byte keys extract used
// to sort and deduplicate candidates with: over sorted copies, Compare's
// sign is the sign of comparing the keys, and it is 0 exactly when the
// keys are equal. The pool holds, beside random expressions, each one's
// cubes in another order, with a cube repeated, and with a cube extended
// so that it has a proper prefix in the other; literals reach past 2^16.
func TestExprOrderMatchesByteKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	alphabet := []Lit{0, 1, 2, 3, 255, 256, 1 << 16, 1<<16 + 1, 1 << 20, 1<<30 + 7}
	randCube := func() Cube {
		var c Cube
		for _, l := range alphabet {
			if rng.Intn(4) == 0 {
				c = append(c, l)
			}
		}
		return c
	}
	// [[2] [5]] sorts after [[2 3] [5]] but before [[2] [5] [7]]; within
	// an expression [2] sorts before [2 3].
	pool := []Expr{{{2}, {5}}, {{2, 3}, {5}}, {{2}, {5}, {7}}, {{2, 3}, {2}}, {{2}, {2, 3}}}
	for len(pool) < 400 {
		var e Expr
		for n := rng.Intn(4); n > 0; n-- {
			e = append(e, randCube())
		}
		pool = append(pool, e)
		if len(e) == 0 {
			continue
		}
		perm := slices.Clone(e)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		dup := append(slices.Clone(e), e[rng.Intn(len(e))])
		ext := slices.Clone(e)
		i := rng.Intn(len(ext))
		ext[i] = append(slices.Clone(ext[i]), alphabet[len(alphabet)-1]+Lit(rng.Intn(3)))
		pool = append(pool, perm, dup, ext)
	}
	sign := func(x int) int { return min(max(x, -1), 1) }
	equal := 0
	for _, a := range pool {
		for _, b := range pool {
			want := bytes.Compare([]byte(ExprKey(a)), []byte(ExprKey(b)))
			got := Compare(sorted(a), sorted(b))
			if sign(got) != want {
				t.Fatalf("Compare(%v, %v) = %d, byte keys compare %d", a, b, got, want)
			}
			if got == 0 && !slices.EqualFunc(sorted(a), sorted(b), slices.Equal[Cube]) {
				t.Fatalf("Compare(%v, %v) = 0 for different cube lists", a, b)
			}
			if got == 0 {
				equal++
			}
		}
	}
	if equal <= len(pool) {
		t.Fatalf("only %d equal pairs among %d expressions: the same cube set in two orders never met", equal, len(pool))
	}
}

// expr builds an algebraic expression from cube strings over n variables.
func expr(n int, cubes ...string) Expr {
	return FromCover(logic.MustCover(cubes...))
}

func TestFromCoverToCover(t *testing.T) {
	f := logic.MustCover("1-0", "01-")
	e := FromCover(f)
	if len(e) != 2 {
		t.Fatalf("expr has %d cubes", len(e))
	}
	back := e.ToCover(3)
	if !truth.FromCover(f).Equal(truth.FromCover(back)) {
		t.Fatalf("round trip changed function: %v -> %v", f, back)
	}
}

func TestLitEncoding(t *testing.T) {
	l := MakeLit(3, logic.Neg)
	if l.Var() != 3 || l.Phase() != logic.Neg {
		t.Fatalf("lit %d decodes to var %d phase %v", l, l.Var(), l.Phase())
	}
	p := MakeLit(3, logic.Pos)
	if p.Var() != 3 || p.Phase() != logic.Pos {
		t.Fatalf("lit %d decodes wrong", p)
	}
}

func TestCommonCube(t *testing.T) {
	// f = abc + abd: common cube ab.
	e := expr(4, "111-", "11-1")
	cc := e.CommonCube()
	if len(cc) != 2 || cc[0].Var() != 0 || cc[1].Var() != 1 {
		t.Fatalf("CommonCube = %v", cc)
	}
	if e.IsCubeFree() {
		t.Fatal("abc+abd is not cube-free")
	}
	free := e.MakeCubeFree()
	if !free.IsCubeFree() {
		t.Fatalf("MakeCubeFree result not cube-free: %v", free)
	}
	// c + d
	want := expr(4, "--1-", "---1")
	if ExprKey(free) != ExprKey(want) {
		t.Fatalf("MakeCubeFree = %v, want %v", free, want)
	}
}

func TestWeakDivTextbook(t *testing.T) {
	// Classic: F = ac + ad + bc + bd + e, D = a + b.
	// F/D = c + d, remainder e.
	F := expr(5, "1-1--", "1--1-", "-11--", "-1-1-", "----1")
	D := expr(5, "1----", "-1---")
	q, r := WeakDiv(F, D)
	wantQ := expr(5, "--1--", "---1-")
	wantR := expr(5, "----1")
	if ExprKey(q) != ExprKey(wantQ) {
		t.Fatalf("quotient = %v, want %v", q, wantQ)
	}
	if ExprKey(r) != ExprKey(wantR) {
		t.Fatalf("remainder = %v, want %v", r, wantR)
	}
}

func TestWeakDivNoQuotient(t *testing.T) {
	F := expr(3, "11-")
	D := expr(3, "--1")
	q, r := WeakDiv(F, D)
	if len(q) != 0 {
		t.Fatalf("quotient = %v, want empty", q)
	}
	if ExprKey(r) != ExprKey(F) {
		t.Fatalf("remainder = %v, want original", r)
	}
}

// Reconstruction property: F == Q*D + R as cube sets, for random algebraic
// expressions.
func TestWeakDivReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(3)
		F := randomExpr(rng, n, 1+rng.Intn(6))
		D := randomExpr(rng, n, 1+rng.Intn(3))
		q, r := WeakDiv(F, D)
		// Rebuild q*d + r.
		var rebuilt Expr
		for _, qc := range q {
			for _, dc := range D {
				rebuilt = append(rebuilt, cubeUnion(qc, dc))
			}
		}
		rebuilt = append(rebuilt, r...)
		if ExprKey(dedupe(rebuilt)) != ExprKey(dedupe(F)) {
			t.Fatalf("iter %d: F=%v D=%v q=%v r=%v rebuilt=%v", iter, F, D, q, r, rebuilt)
		}
	}
}

func dedupe(e Expr) Expr {
	seen := map[string]bool{}
	var out Expr
	for _, c := range e {
		k := cubeKey(c)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

func randomExpr(rng *rand.Rand, n, cubes int) Expr {
	seen := map[string]bool{}
	var out Expr
	for len(out) < cubes {
		var c Cube
		for v := 0; v < n; v++ {
			switch rng.Intn(3) {
			case 0:
				c = append(c, MakeLit(v, logic.Pos))
			case 1:
				c = append(c, MakeLit(v, logic.Neg))
			}
		}
		if len(c) == 0 {
			continue
		}
		k := cubeKey(c)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

func TestKernelsTextbook(t *testing.T) {
	// F = adf + aef + bdf + bef + cdf + cef + g
	//   = (a+b+c)(d+e)f + g.
	// Kernels: {a+b+c, d+e, (a+b+c)(d+e)f+g expanded}, the whole F is
	// cube-free so F itself is a kernel.
	vars := 7 // a..g = 0..6
	mk := func(ls ...int) Cube {
		var c Cube
		for _, v := range ls {
			c = append(c, MakeLit(v, logic.Pos))
		}
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		return c
	}
	F := Expr{
		mk(0, 3, 5), mk(0, 4, 5),
		mk(1, 3, 5), mk(1, 4, 5),
		mk(2, 3, 5), mk(2, 4, 5),
		mk(6),
	}
	_ = vars
	ks := Kernels(F)
	foundABC, foundDE, foundSelf := false, false, false
	abc := Expr{mk(0), mk(1), mk(2)}
	de := Expr{mk(3), mk(4)}
	for _, k := range ks {
		if ExprKey(k.Expr) == ExprKey(abc) {
			foundABC = true
		}
		if ExprKey(k.Expr) == ExprKey(de) {
			foundDE = true
		}
		if ExprKey(k.Expr) == ExprKey(F) {
			foundSelf = true
		}
	}
	if !foundABC || !foundDE || !foundSelf {
		t.Fatalf("kernels missing: abc=%v de=%v self=%v (got %d kernels)",
			foundABC, foundDE, foundSelf, len(ks))
	}
}

// Property: every reported kernel is a cube-free quotient of F by its
// co-kernel.
func TestKernelsAreQuotients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 150; iter++ {
		n := 3 + rng.Intn(3)
		F := randomExpr(rng, n, 2+rng.Intn(5))
		for _, k := range Kernels(F) {
			if !k.Expr.IsCubeFree() && len(k.Expr) > 1 {
				t.Fatalf("iter %d: kernel %v is not cube-free", iter, k.Expr)
			}
			if len(k.CoKernel) == 0 {
				// The expression itself (made cube-free); check equality.
				if ExprKey(k.Expr) != ExprKey(F.MakeCubeFree()) && ExprKey(k.Expr) != ExprKey(F) {
					t.Fatalf("iter %d: empty co-kernel but expr %v != F %v", iter, k.Expr, F)
				}
				continue
			}
			q, _ := F.DivideByCube(k.CoKernel)
			if ExprKey(q.MakeCubeFree()) != ExprKey(k.Expr) {
				t.Fatalf("iter %d: kernel %v with co-kernel %v is not the cube-free quotient %v",
					iter, k.Expr, k.CoKernel, q.MakeCubeFree())
			}
		}
	}
}

func TestVars(t *testing.T) {
	e := expr(5, "1---0", "-1---")
	got := e.Vars()
	want := []int{0, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

// Literals 65 536 apart are different literals: dividing by a + b must
// not match the a-quotient x against the b-quotient y when x and y are
// the variables 0 and 32 768.
func TestWeakDivWideLiterals(t *testing.T) {
	e := Expr{{0, 2}, {3, 65536}}
	q, r := WeakDiv(e, Expr{{2}, {3}})
	if len(q) != 0 || len(r) != 2 {
		t.Fatalf("WeakDiv(%v, [[2] [3]]) = q %v r %v, want q empty and r = e", e, q, r)
	}
	if ExprKey(Expr{{0}}) == ExprKey(Expr{{65536}}) {
		t.Fatal("[[0]] and [[65536]] share a key")
	}
}
