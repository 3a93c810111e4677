package truth

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tels/internal/logic"
)

func randomTable(rng *rand.Rand, n int) *Table {
	t := New(n)
	for m := 0; m < t.Size(); m++ {
		t.Set(m, rng.Intn(2) == 1)
	}
	return t
}

// The per-minterm reference primitives. The word-parallel versions in
// truth.go must agree with them bit for bit; each reads the table only
// through Get on minterms below 2^N, so bits past 2^N cannot leak in.

func varRef(n, i int) *Table {
	t := New(n)
	for m := 0; m < t.Size(); m++ {
		if m&(1<<uint(i)) != 0 {
			t.Set(m, true)
		}
	}
	return t
}

func cofactorRef(t *Table, i int, v bool) *Table {
	u := New(t.n)
	step := 1 << uint(i)
	for m := 0; m < t.Size(); m++ {
		src := m &^ step
		if v {
			src = m | step
		}
		u.Set(m, t.Get(src))
	}
	return u
}

func dependsOnRef(t *Table, i int) bool {
	return !cofactorRef(t, i, false).Equal(cofactorRef(t, i, true))
}

func supportRef(t *Table) []int {
	var s []int
	for i := 0; i < t.n; i++ {
		if dependsOnRef(t, i) {
			s = append(s, i)
		}
	}
	return s
}

// implies reports whether the ON-set of t is a subset of the ON-set of u.
func implies(t, u *Table) bool {
	for i := range t.bits {
		if t.bits[i]&^u.bits[i] != 0 {
			return false
		}
	}
	return true
}

func varUnatenessRef(t *Table, i int) Unateness {
	f0, f1 := cofactorRef(t, i, false), cofactorRef(t, i, true)
	le, ge := implies(f0, f1), implies(f1, f0)
	switch {
	case le && ge:
		return Independent
	case le:
		return PosUnate
	case ge:
		return NegUnate
	default:
		return Binate
	}
}

func isUnateRef(t *Table) bool {
	for i := 0; i < t.n; i++ {
		if varUnatenessRef(t, i) == Binate {
			return false
		}
	}
	return true
}

func fromCoverRef(f logic.Cover) *Table {
	t := New(f.N)
	assign := make([]bool, f.N)
	for m := 0; m < t.Size(); m++ {
		for i := 0; i < f.N; i++ {
			assign[i] = m&(1<<uint(i)) != 0
		}
		if f.Eval(assign) {
			t.Set(m, true)
		}
	}
	return t
}

func projectRef(t *Table, vars []int) *Table {
	u := New(len(vars))
	for m := 0; m < u.Size(); m++ {
		src := 0
		for k, v := range vars {
			if m&(1<<uint(k)) != 0 {
				src |= 1 << uint(v)
			}
		}
		u.Set(m, t.Get(src))
	}
	return u
}

func substituteNegRef(t *Table, i int) *Table {
	u := New(t.n)
	step := 1 << uint(i)
	for m := 0; m < t.Size(); m++ {
		u.Set(m, t.Get(m^step))
	}
	return u
}

// stale sets every bit past 2^N of a table with fewer than 64 minterms.
// Those bits are not minterms; the primitives must ignore them.
func stale(t *Table) {
	t.bits[0] |= ^t.mask()
}

// checkTable fails unless got equals want and has no bit set past 2^N.
func checkTable(t *testing.T, name string, got, want *Table) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: %d variables, want %d", name, got.N(), want.N())
	}
	if hi := got.bits[len(got.bits)-1] &^ got.mask(); hi != 0 {
		t.Fatalf("%s: bits past 2^%d set: %#x", name, got.N(), hi)
	}
	if !got.Equal(want) {
		t.Fatalf("%s = %s, want %s", name, got, want)
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPrimitives compares every word-parallel primitive on tt with its
// per-minterm reference. vars is a Project argument covering the support.
func checkPrimitives(t *testing.T, tt *Table, vars []int) {
	t.Helper()
	n := tt.N()
	for i := 0; i < n; i++ {
		checkTable(t, fmt.Sprintf("Var(%d,%d)", n, i), Var(n, i), varRef(n, i))
		if got, want := tt.DependsOn(i), dependsOnRef(tt, i); got != want {
			t.Fatalf("DependsOn(%d) = %v, want %v on %s", i, got, want, tt)
		}
		if got, want := tt.VarUnateness(i), varUnatenessRef(tt, i); got != want {
			t.Fatalf("VarUnateness(%d) = %v, want %v on %s", i, got, want, tt)
		}
		checkTable(t, fmt.Sprintf("SubstituteNeg(%d)", i), tt.SubstituteNeg(i), substituteNegRef(tt, i))
	}
	if got, want := tt.Support(), supportRef(tt); !sameInts(got, want) {
		t.Fatalf("Support = %v, want %v on %s", got, want, tt)
	}
	if got, want := tt.IsUnate(), isUnateRef(tt); got != want {
		t.Fatalf("IsUnate = %v, want %v on %s", got, want, tt)
	}
	checkTable(t, fmt.Sprintf("Project(%v)", vars), tt.Project(vars), projectRef(tt, vars))
}

// randomCover returns a cover of up to maxCubes random cubes over n
// variables.
func randomCover(rng *rand.Rand, n, maxCubes int) logic.Cover {
	cv := logic.NewCover(n)
	for c := rng.Intn(maxCubes + 1); c > 0; c-- {
		cube := logic.NewCube(n)
		for j := range cube {
			cube[j] = logic.Phase(rng.Intn(3))
		}
		cv.AddCube(cube)
	}
	return cv
}

func TestPrimitivesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 10; n++ {
		for r := 0; r < 12; r++ {
			var tt *Table
			switch r % 3 {
			case 0:
				tt = randomTable(rng, n)
			case 1:
				// A few random cubes: a function with a small support.
				tt = FromCover(randomCover(rng, n, 3))
			default:
				tt = Const(n, r%2 == 0)
			}
			if n < 6 && r%2 == 1 {
				stale(tt)
			}
			// Project onto the support plus a random superset, shuffled.
			vars := tt.Support()
			for i := 0; i < n; i++ {
				if !tt.DependsOn(i) && rng.Intn(2) == 0 {
					vars = append(vars, i)
				}
			}
			rng.Shuffle(len(vars), func(a, b int) { vars[a], vars[b] = vars[b], vars[a] })
			checkPrimitives(t, tt, vars)
		}
		for r := 0; r < 20; r++ {
			cv := randomCover(rng, n, 6)
			checkTable(t, fmt.Sprintf("FromCover(%v)", cv.Cubes), FromCover(cv), fromCoverRef(cv))
		}
	}
}

// FuzzTable checks every word-parallel primitive against the per-minterm
// reference on tables of up to 10 variables, and the unate shortcut of
// MinimalSOPWithDC against the general route (checkUnateRoute) on the
// table and on a unate table built from the cover. The first byte picks N; the
// second holds flags (bit 0: set the stale bits past 2^N of a table with
// fewer than 64 minterms; bit 1: add the universal cube to the cover); the
// third picks which non-support variables join the Project argument and
// how it is rotated. The remaining bytes, repeated as needed, fill the
// table and then give the cover: a cube count and two bits per literal
// (3 is a don't-care, like 2). The seed corpus is in
// testdata/fuzz/FuzzTable.
func FuzzTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0]) % 11
		flags, pick, fill := data[1], data[2], data[3:]
		tt := New(n)
		bit := func(k int) bool { return len(fill) > 0 && fill[(k/8)%len(fill)]>>uint(k%8)&1 != 0 }
		for m := 0; m < tt.Size(); m++ {
			tt.Set(m, bit(m))
		}
		if flags&1 != 0 {
			stale(tt)
		}
		vars := tt.Support()
		for i := 0; i < n; i++ {
			if !tt.DependsOn(i) && pick>>uint(i%8)&1 != 0 {
				vars = append(vars, i)
			}
		}
		if len(vars) > 0 {
			r := int(pick) % len(vars)
			vars = append(vars[r:], vars[:r]...)
		}
		checkPrimitives(t, tt, vars)

		cv := logic.NewCover(n)
		if flags&2 != 0 {
			cv.AddCube(logic.NewCube(n))
		}
		k := tt.Size()
		cubes := 0
		for j := 0; j < 8; j++ {
			if bit(k + j) {
				cubes |= 1 << uint(j%3)
			}
		}
		k += 8
		for c := 0; c < cubes; c++ {
			cube := logic.NewCube(n)
			for i := range cube {
				p := 0
				if bit(k) {
					p |= 1
				}
				if bit(k + 1) {
					p |= 2
				}
				k += 2
				cube[i] = [4]logic.Phase{logic.Neg, logic.Pos, logic.DC, logic.DC}[p]
			}
			cv.AddCube(cube)
		}
		checkTable(t, fmt.Sprintf("FromCover(%v)", cv.Cubes), FromCover(cv), fromCoverRef(cv))

		// The table is seldom unate; the cover with every literal of
		// variable i in one phase, negative where pick has bit i%8, always
		// is.
		checkUnateRoute(t, "table", tt)
		ucv := logic.NewCover(n)
		for _, c := range cv.Cubes {
			u := c.Clone()
			for i, p := range u {
				if p != logic.DC {
					u[i] = [2]logic.Phase{logic.Pos, logic.Neg}[pick>>uint(i%8)&1]
				}
			}
			ucv.AddCube(u)
		}
		unate := FromCover(ucv)
		if flags&1 != 0 {
			stale(unate)
		}
		checkUnateRoute(t, fmt.Sprintf("unate cover %v", ucv.Cubes), unate)
	})
}

func TestFromWords(t *testing.T) {
	for _, n := range []int{0, 3, 6, 8} {
		want := randomTable(rand.New(rand.NewSource(int64(n))), n)
		words := append([]uint64(nil), want.Words()...)
		words[len(words)-1] |= ^want.mask()
		got := FromWords(n, words)
		checkTable(t, fmt.Sprintf("FromWords(%d)", n), got, want)
		words[0] ^= 1
		if !got.Equal(want) {
			t.Fatalf("n=%d: FromWords aliases its argument", n)
		}
	}
}

// TestSharedTableReads runs every read primitive on shared tables from
// several goroutines; under -race it fails if any read writes the table.
func TestSharedTableReads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tt := range []*Table{randomTable(rng, 4), randomTable(rng, 8), FromCover(randomCover(rng, 7, 3))} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = tt.Words()
				for i := 0; i < tt.N(); i++ {
					tt.DependsOn(i)
					tt.VarUnateness(i)
					tt.SubstituteNeg(i)
				}
				tt.Project(tt.Support())
				tt.IsUnate()
				tt.Clone()
				tt.Not()
				tt.And(tt)
				tt.Equal(tt)
				tt.IsConst()
				tt.Primes()
				tt.MinimalSOPWithDC(tt)
				_ = tt.String()
			}()
		}
		wg.Wait()
	}
}

func TestQueriesDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 10} {
		tt := FromCover(randomCover(rng, n, 4))
		if got := testing.AllocsPerRun(10, func() {
			for i := 0; i < n; i++ {
				tt.DependsOn(i)
				tt.VarUnateness(i)
			}
			tt.IsUnate()
		}); got != 0 {
			t.Errorf("n=%d: DependsOn/VarUnateness/IsUnate allocate %v times, want 0", n, got)
		}
		// Support allocates only the slice it returns.
		if got := testing.AllocsPerRun(10, func() { tt.Support() }); got > 1 {
			t.Errorf("n=%d: Support allocates %v times, want at most 1", n, got)
		}
	}
}

func TestVarAndConst(t *testing.T) {
	x := Var(3, 1)
	for m := 0; m < 8; m++ {
		want := m&2 != 0
		if x.Get(m) != want {
			t.Fatalf("Var(3,1) at %d = %v, want %v", m, x.Get(m), want)
		}
	}
	one := Const(2, true)
	if c, v := one.IsConst(); !c || !v {
		t.Fatal("Const(2,true) should be constant 1")
	}
	zero := Const(2, false)
	if c, v := zero.IsConst(); !c || v {
		t.Fatal("Const(2,false) should be constant 0")
	}
}

func TestBooleanOps(t *testing.T) {
	a, b := Var(2, 0), Var(2, 1)
	and := a.And(b)
	if and.CountOnes() != 1 || !and.Get(3) {
		t.Fatalf("a*b wrong: %s", and)
	}
	or := a.Or(b)
	if or.CountOnes() != 3 || or.Get(0) {
		t.Fatalf("a+b wrong: %s", or)
	}
	xor := a.Xor(b)
	if !xor.Get(1) || !xor.Get(2) || xor.Get(0) || xor.Get(3) {
		t.Fatalf("a^b wrong: %s", xor)
	}
	not := a.Not()
	if !not.Get(0) || not.Get(1) {
		t.Fatalf("!a wrong: %s", not)
	}
}

func TestNotMasksHighBits(t *testing.T) {
	// For n < 6 the complement must not set bits beyond 2^n.
	a := New(3)
	na := a.Not()
	if got, want := na.CountOnes(), 8; got != want {
		t.Fatalf("CountOnes(!0) = %d, want %d", got, want)
	}
	if !na.Equal(Const(3, true)) {
		t.Fatal("!const0 != const1")
	}
}

func TestSupport(t *testing.T) {
	// f = x0*x1 + x2
	f := Var(3, 0).And(Var(3, 1)).Or(Var(3, 2))
	sup := f.Support()
	if len(sup) != 3 {
		t.Fatalf("Support = %v, want all three", sup)
	}
	g := Var(3, 0).Or(Var(3, 0)) // depends only on x0
	if got := g.Support(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Support = %v, want [0]", got)
	}
}

func TestUnateness(t *testing.T) {
	// f = x0 + !x1: positive in x0, negative in x1.
	f := Var(2, 0).Or(Var(2, 1).Not())
	if u := f.VarUnateness(0); u != PosUnate {
		t.Errorf("x0 unateness = %v, want positive", u)
	}
	if u := f.VarUnateness(1); u != NegUnate {
		t.Errorf("x1 unateness = %v, want negative", u)
	}
	// xor is binate in both.
	x := Var(2, 0).Xor(Var(2, 1))
	if u := x.VarUnateness(0); u != Binate {
		t.Errorf("xor unateness = %v, want binate", u)
	}
	if x.IsUnate() {
		t.Error("xor should not be unate")
	}
	if !f.IsUnate() {
		t.Error("x0 + !x1 should be unate")
	}
	// Independence.
	g := Var(2, 0)
	if u := g.VarUnateness(1); u != Independent {
		t.Errorf("unused var unateness = %v, want independent", u)
	}
}

func TestFromCoverRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		n := 1 + rng.Intn(5)
		cv := logic.NewCover(n)
		for c := 0; c < 1+rng.Intn(4); c++ {
			cube := logic.NewCube(n)
			for j := 0; j < n; j++ {
				cube[j] = logic.Phase(rng.Intn(3))
			}
			cv.AddCube(cube)
		}
		tt := FromCover(cv)
		assign := make([]bool, n)
		for m := 0; m < tt.Size(); m++ {
			for i := 0; i < n; i++ {
				assign[i] = m&(1<<uint(i)) != 0
			}
			if tt.Get(m) != cv.Eval(assign) {
				t.Fatalf("iter %d: FromCover disagrees at %d", iter, m)
			}
		}
	}
}

func TestProject(t *testing.T) {
	// f = x1 + x3 over 4 vars; project to [1,3].
	f := Var(4, 1).Or(Var(4, 3))
	g := f.Project([]int{1, 3})
	want := Var(2, 0).Or(Var(2, 1))
	if !g.Equal(want) {
		t.Fatalf("Project = %s, want %s", g, want)
	}
}

func TestProjectPanicsOnDroppedSupport(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Project should panic when dropping a support variable")
		}
	}()
	Var(3, 2).Project([]int{0, 1})
}

func TestSubstituteNeg(t *testing.T) {
	// f = x0*!x1; substituting x1 -> !x1 yields x0*x1.
	f := Var(2, 0).And(Var(2, 1).Not())
	g := f.SubstituteNeg(1)
	if !g.Equal(Var(2, 0).And(Var(2, 1))) {
		t.Fatalf("SubstituteNeg wrong: %s", g)
	}
	// Applying twice restores the function.
	if !g.SubstituteNeg(1).Equal(f) {
		t.Fatal("SubstituteNeg is not an involution")
	}
}

func TestLargeTables(t *testing.T) {
	// Exercise the multi-word path (n > 6).
	n := 8
	f := Var(n, 7).And(Var(n, 0))
	if f.CountOnes() != 64 {
		t.Fatalf("x7*x0 over 8 vars has %d ones, want 64", f.CountOnes())
	}
	if !f.Not().Not().Equal(f) {
		t.Fatal("double complement broken on multi-word table")
	}
	if f.VarUnateness(7) != PosUnate {
		t.Fatal("unateness broken on multi-word table")
	}
}

// composeRef evaluates the composition of Compose minterm by minterm.
func composeRef(t *Table, i int, g *Table) *Table {
	u := New(g.n)
	assign := make([]bool, t.n)
	for m := 0; m < u.Size(); m++ {
		for j := range assign {
			switch {
			case j < i:
				assign[j] = m>>uint(j)&1 != 0
			case j > i:
				assign[j] = m>>uint(j-1)&1 != 0
			default:
				assign[j] = g.Get(m)
			}
		}
		u.Set(m, t.Eval(assign))
	}
	return u
}

// TestComposeMatchesEval checks Compose against per-minterm Eval for
// results of 0 to 12 variables (rows of 1 to 64 words), every substituted
// position, and inputs with stale bits past 2^N.
func TestComposeMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for k := 0; k <= 12; k++ {
		for n := 1; n <= k+1; n++ {
			for r := 0; r < 4; r++ {
				tt, g := randomTable(rng, n), randomTable(rng, k)
				if r%2 == 1 {
					if n < 6 {
						stale(tt)
					}
					if k < 6 {
						stale(g)
					}
				}
				i := rng.Intn(n)
				name := fmt.Sprintf("Compose(%d vars, %d, %d vars)", n, i, k)
				got := tt.Compose(i, g)
				if len(got.Words()) != WordsFor(k) {
					t.Fatalf("%s: %d words, want %d", name, len(got.Words()), WordsFor(k))
				}
				checkTable(t, name, got, composeRef(tt, i, g))
			}
		}
	}
}

// fromCubesRef evaluates FromCubes' cubes minterm by minterm.
func fromCubesRef(n int, phases []logic.Phase, nCubes int, vars []int) *Table {
	t := New(n)
	width := len(vars)
	for m := 0; m < t.Size(); m++ {
		for c := 0; c < nCubes; c++ {
			in := true
			for j, p := range phases[c*width : (c+1)*width] {
				v := m>>uint(vars[j])&1 != 0
				if p == logic.Pos && !v || p == logic.Neg && v {
					in = false
				}
			}
			if in {
				t.Set(m, true)
				break
			}
		}
	}
	return t
}

// TestFromCubesMatchesEval checks FromCubes against per-minterm cube
// evaluation, with variable maps that repeat and skip variables, and
// against FromCover under the identity map.
func TestFromCubesMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 12; n++ {
		for r := 0; r < 20; r++ {
			width := 0
			if n > 0 {
				width = rng.Intn(7)
			}
			vars := make([]int, width)
			for j := range vars {
				vars[j] = rng.Intn(n)
			}
			nCubes := rng.Intn(5)
			phases := make([]logic.Phase, nCubes*width)
			for j := range phases {
				phases[j] = logic.Phase(rng.Intn(3))
			}
			checkTable(t, fmt.Sprintf("FromCubes(%d, %v, %v)", n, phases, vars),
				FromCubes(n, phases, nCubes, vars), fromCubesRef(n, phases, nCubes, vars))
		}
		cv := randomCover(rng, n, 6)
		var phases []logic.Phase
		for _, c := range cv.Cubes {
			phases = append(phases, c...)
		}
		ident := make([]int, n)
		for i := range ident {
			ident[i] = i
		}
		checkTable(t, fmt.Sprintf("FromCubes(identity, %v)", cv.Cubes),
			FromCubes(n, phases, len(cv.Cubes), ident), FromCover(cv))
	}
	// A cube reading one variable in both phases is empty.
	checkTable(t, "FromCubes(x0 ∧ ¬x0)", FromCubes(2, []logic.Phase{logic.Pos, logic.Neg}, 1, []int{0, 0}), New(2))
}
