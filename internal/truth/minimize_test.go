package truth

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"tels/internal/logic"
)

// Primes returns all prime implicants of the function as cubes over its N
// variables, sorted by Cube.String: the primes of primeKeys, decoded.
func (t *Table) Primes() []logic.Cube { return decodeKeys(t.n, t.primeKeys()) }

// primesQM is the reference prime generator: Quine–McCluskey iterative
// merging over explicit minterm cubes, with cubes packed into uint64 keys
// (values | dcs<<32) and bucketed by DC mask and ones count so only cubes
// that can merge are compared. Table.Primes must return exactly its
// primes, in the same order.
func primesQM(t *Table) []logic.Cube {
	type qmCube struct {
		values uint32 // bits for non-DC positions (DC positions are 0)
		dcs    uint32 // bitmask of DC positions
	}
	key := func(c qmCube) uint64 { return uint64(c.values) | uint64(c.dcs)<<32 }

	var current []qmCube
	for m := 0; m < t.Size(); m++ {
		if t.Get(m) {
			current = append(current, qmCube{values: uint32(m)})
		}
	}
	var primes []qmCube
	for len(current) > 0 {
		merged := make([]bool, len(current))
		// A merge pairs two cubes with identical DC masks whose values
		// differ in exactly one bit, so their ones counts differ by one.
		type bucketKey struct {
			dcs  uint32
			ones int
		}
		buckets := make(map[bucketKey][]int)
		for i, c := range current {
			bk := bucketKey{c.dcs, bits.OnesCount32(c.values)}
			buckets[bk] = append(buckets[bk], i)
		}
		nextSet := make(map[uint64]qmCube)
		for bk, lo := range buckets {
			hi, ok := buckets[bucketKey{bk.dcs, bk.ones + 1}]
			if !ok {
				continue
			}
			for _, a := range lo {
				for _, b := range hi {
					diff := current[a].values ^ current[b].values
					if diff&(diff-1) != 0 {
						continue
					}
					merged[a] = true
					merged[b] = true
					nc := qmCube{values: current[a].values &^ diff, dcs: bk.dcs | diff}
					nextSet[key(nc)] = nc
				}
			}
		}
		for i, c := range current {
			if !merged[i] {
				primes = append(primes, c)
			}
		}
		keys := make([]uint64, 0, len(nextSet))
		for k := range nextSet {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		current = current[:0]
		for _, k := range keys {
			current = append(current, nextSet[k])
		}
	}
	out := make([]logic.Cube, 0, len(primes))
	for _, p := range primes {
		c := logic.NewCube(t.n)
		for i := 0; i < t.n; i++ {
			bit := uint32(1) << uint(i)
			switch {
			case p.dcs&bit != 0:
				c[i] = logic.DC
			case p.values&bit != 0:
				c[i] = logic.Pos
			default:
				c[i] = logic.Neg
			}
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// minimalSOPWithDCRef is the reference covering step: primesQM primes,
// a prime × minterm incidence built with Cube.Eval, essential primes,
// then greedy selection of the lowest-index prime with the largest gain.
// Table.MinimalSOPWithDC must return exactly its cover.
func minimalSOPWithDCRef(t, dc *Table) logic.Cover {
	expand := t
	if dc != nil {
		expand = t.Or(dc)
	}
	primes := primesQM(expand)
	cover := logic.NewCover(t.n)
	if len(primes) == 0 {
		return cover
	}
	var minterms []int
	for m := 0; m < t.Size(); m++ {
		if t.Get(m) && (dc == nil || !dc.Get(m)) {
			minterms = append(minterms, m)
		}
	}
	if len(minterms) == 0 {
		return cover
	}
	assign := make([]bool, t.n)
	covers := make([][]int, len(primes)) // prime index -> minterm indices
	coveredBy := make([][]int, len(minterms))
	for mi, m := range minterms {
		for i := 0; i < t.n; i++ {
			assign[i] = m&(1<<uint(i)) != 0
		}
		for pi, p := range primes {
			if p.Eval(assign) {
				covers[pi] = append(covers[pi], mi)
				coveredBy[mi] = append(coveredBy[mi], pi)
			}
		}
	}
	selected := make([]bool, len(primes))
	covered := make([]bool, len(minterms))
	remaining := len(minterms)
	take := func(pi int) {
		if selected[pi] {
			return
		}
		selected[pi] = true
		for _, mi := range covers[pi] {
			if !covered[mi] {
				covered[mi] = true
				remaining--
			}
		}
	}
	for mi := range minterms {
		if len(coveredBy[mi]) == 1 {
			take(coveredBy[mi][0])
		}
	}
	for remaining > 0 {
		best, bestGain := -1, 0
		for pi := range primes {
			if selected[pi] {
				continue
			}
			gain := 0
			for _, mi := range covers[pi] {
				if !covered[mi] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = pi, gain
			}
		}
		if best < 0 {
			break
		}
		take(best)
	}
	for pi, p := range primes {
		if selected[pi] {
			cover.AddCube(p.Clone())
		}
	}
	return cover
}

// densityTable returns an n-variable table whose minterms are each ON
// with probability num/den.
func densityTable(rng *rand.Rand, n, num, den int) *Table {
	t := New(n)
	for m := 0; m < t.Size(); m++ {
		t.Set(m, rng.Intn(den) < num)
	}
	return t
}

// sameCubes reports the first position where two cube lists differ, or -1.
func sameCubes(got, want []logic.Cube) int {
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i].String() != want[i].String() {
			return i
		}
	}
	return -1
}

// checkAgainstReference compares Primes and MinimalSOPWithDC (without and
// with dc) with the reference implementations, cube for cube.
func checkAgainstReference(t *testing.T, name string, on, dc *Table) {
	t.Helper()
	got, want := on.Primes(), primesQM(on)
	if i := sameCubes(got, want); i >= 0 {
		t.Fatalf("%s: Primes differs at %d:\n got  %v\n want %v", name, i, got, want)
	}
	dcs := []*Table{nil}
	if dc != nil {
		dcs = append(dcs, dc)
	}
	for _, d := range dcs {
		got, want := on.MinimalSOPWithDC(d), minimalSOPWithDCRef(on, d)
		if i := sameCubes(got.Cubes, want.Cubes); i >= 0 {
			t.Fatalf("%s (dc=%v): MinimalSOPWithDC differs at %d:\n got  %v\n want %v",
				name, d != nil, i, got.Cubes, want.Cubes)
		}
	}
}

func TestPrimesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	densities := [][2]int{{9, 10}, {1, 2}, {1, 16}, {1, 64}}
	for n := 0; n <= 12; n++ {
		for _, dn := range densities {
			reps := 6
			switch {
			case n > 10:
				reps = 1
			case n > 8:
				reps = 2
			}
			for r := 0; r < reps; r++ {
				on := densityTable(rng, n, dn[0], dn[1])
				dc := densityTable(rng, n, 1, 8)
				checkAgainstReference(t, fmt.Sprintf("n=%d density=%d/%d rep=%d", n, dn[0], dn[1], r), on, dc)
			}
		}
		// Constant tables, where for n < 6 the single word is partial.
		checkAgainstReference(t, fmt.Sprintf("n=%d const0", n), Const(n, false), Const(n, true))
		checkAgainstReference(t, fmt.Sprintf("n=%d const1", n), Const(n, true), nil)
	}
	for _, n := range []int{14, 16} {
		for _, den := range []int{64, 1024} {
			on := densityTable(rng, n, 1, den)
			dc := densityTable(rng, n, 1, 4*den)
			checkAgainstReference(t, fmt.Sprintf("n=%d density=1/%d", n, den), on, dc)
		}
	}
}

func TestPrimesIgnoresStaleHighBits(t *testing.T) {
	// Bits past 2^N in the single word of a small table are not minterms.
	for n := 0; n < 6; n++ {
		tt := Const(n, true)
		tt.bits[0] = ^uint64(0)
		if got, want := tt.Primes(), primesQM(Const(n, true)); sameCubes(got, want) >= 0 {
			t.Fatalf("n=%d: primes %v, want %v", n, got, want)
		}
		if got := tt.MinimalSOP(); len(got.Cubes) != 1 || !got.Cubes[0].IsUniverse() {
			t.Fatalf("n=%d: cover %v, want the universe", n, got.Cubes)
		}
	}
}

// FuzzPrimes checks Primes and MinimalSOPWithDC against the reference
// oracle on tables of up to 10 variables. The first byte picks N; the
// remaining bytes, repeated as needed, fill the ON-set and then the DC set.
// The seed corpus is in testdata/fuzz/FuzzPrimes.
func FuzzPrimes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 11
		fill := data[1:]
		on, dc := New(n), New(n)
		if len(fill) > 0 {
			for m := 0; m < on.Size(); m++ {
				on.Set(m, fill[(m/8)%len(fill)]>>uint(m%8)&1 != 0)
				k := on.Size() + m
				dc.Set(m, fill[(k/8)%len(fill)]>>uint(k%8)&1 != 0 && !on.Get(m))
			}
		}
		checkAgainstReference(t, "fuzz", on, dc)
	})
}

// randomUnateTable returns a unate table over n variables: an OR of up to
// eight random cubes in which each variable keeps one phase, positive or
// negative, or is left out, so the table has independent variables too.
func randomUnateTable(rng *rand.Rand, n int) *Table {
	phase := make([]logic.Phase, n)
	for i := range phase {
		phase[i] = [3]logic.Phase{logic.Pos, logic.Neg, logic.DC}[rng.Intn(3)]
	}
	cv := logic.NewCover(n)
	den := 2 + rng.Intn(3)
	for c := rng.Intn(9); c > 0; c-- {
		cube := logic.NewCube(n)
		for i, p := range phase {
			if rng.Intn(den) == 0 {
				cube[i] = p
			}
		}
		cv.AddCube(cube)
	}
	return FromCover(cv)
}

// checkUnateRoute checks the unate shortcut of MinimalSOPWithDC against
// the general route: it declines exactly on binate tables, and otherwise
// returns the general route's cover, the same cubes in the same order.
func checkUnateRoute(t *testing.T, name string, tt *Table) {
	t.Helper()
	_, ok := tt.unatePrimeKeys()
	if unate := tt.IsUnate(); ok != unate {
		t.Fatalf("%s: unate shortcut taken = %v on a table with IsUnate = %v (%s)", name, ok, unate, tt)
	}
	got, want := tt.MinimalSOPWithDC(nil), tt.greedySOP(nil)
	if got.N != want.N || len(got.Cubes) != len(want.Cubes) || (got.Cubes == nil) != (want.Cubes == nil) {
		t.Fatalf("%s: cover %d/%v, want %d/%v (%s)", name, got.N, got.Cubes, want.N, want.Cubes, tt)
	}
	if i := sameCubes(got.Cubes, want.Cubes); i >= 0 {
		t.Fatalf("%s: cover differs at cube %d:\n got  %v\n want %v (%s)", name, i, got.Cubes, want.Cubes, tt)
	}
}

// TestUnateRouteAllSmallTables runs the unate shortcut on every function
// of at most four variables.
func TestUnateRouteAllSmallTables(t *testing.T) {
	unate := 0
	for n := 0; n <= 4; n++ {
		tt := New(n)
		for f := 0; f < 1<<uint(tt.Size()); f++ {
			tt.bits[0] = uint64(f)
			checkUnateRoute(t, fmt.Sprintf("n=%d f=%#x", n, f), tt)
			if tt.IsUnate() {
				unate++
			}
		}
	}
	// 2 + 4 + 14 + 104 + 2 170 unate functions of 0..4 variables.
	if unate != 2294 {
		t.Fatalf("%d unate tables of at most four variables, want 2294", unate)
	}
}

// TestUnateRouteRandom runs the unate shortcut on random unate tables of
// up to eleven variables in mixed phases, and on their stale-bit copies.
func TestUnateRouteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 3000; iter++ {
		n := rng.Intn(12)
		tt := randomUnateTable(rng, n)
		if !tt.IsUnate() {
			t.Fatalf("iter %d: randomUnateTable gave a binate table %s", iter, tt)
		}
		name := fmt.Sprintf("iter %d n=%d", iter, n)
		checkUnateRoute(t, name, tt)
		if n < 6 {
			stale(tt)
			checkUnateRoute(t, name+" stale", tt)
		}
	}
}

func TestPrimesXor(t *testing.T) {
	x := Var(2, 0).Xor(Var(2, 1))
	primes := x.Primes()
	if len(primes) != 2 {
		t.Fatalf("xor has %d primes, want 2: %v", len(primes), primes)
	}
	got := map[string]bool{}
	for _, p := range primes {
		got[p.String()] = true
	}
	if !got["01"] || !got["10"] {
		t.Fatalf("xor primes = %v", got)
	}
}

func TestPrimesAbsorb(t *testing.T) {
	// f = x0 + x0*x1 has the single prime x0.
	f := Var(2, 0).Or(Var(2, 0).And(Var(2, 1)))
	primes := f.Primes()
	if len(primes) != 1 || primes[0].String() != "1-" {
		t.Fatalf("primes = %v, want [1-]", primes)
	}
}

func TestPrimesConstant(t *testing.T) {
	one := Const(2, true)
	primes := one.Primes()
	if len(primes) != 1 || !primes[0].IsUniverse() {
		t.Fatalf("constant-1 primes = %v, want the universe", primes)
	}
	if got := Const(2, false).Primes(); len(got) != 0 {
		t.Fatalf("constant-0 primes = %v, want none", got)
	}
}

func primeOracle(tt *Table, c logic.Cube) bool {
	// c is an implicant of tt and no single literal can be dropped.
	cover := logic.NewCover(tt.N())
	cover.AddCube(c)
	if !implies(FromCover(cover), tt) {
		return false
	}
	for i, p := range c {
		if p == logic.DC {
			continue
		}
		raised := c.Clone()
		raised[i] = logic.DC
		bigger := logic.NewCover(tt.N())
		bigger.AddCube(raised)
		if implies(FromCover(bigger), tt) {
			return false
		}
	}
	return true
}

func TestPrimesAreExactlyPrimes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 120; iter++ {
		n := 1 + rng.Intn(4)
		tt := randomTable(rng, n)
		primes := tt.Primes()
		seen := map[string]bool{}
		for _, p := range primes {
			if !primeOracle(tt, p) {
				t.Fatalf("iter %d: %v is not prime for %s", iter, p, tt)
			}
			seen[p.String()] = true
		}
		// Completeness: every implicant cube that the oracle says is prime
		// must be listed (enumerate all 3^n cubes).
		total := 1
		for i := 0; i < n; i++ {
			total *= 3
		}
		for code := 0; code < total; code++ {
			c := logic.NewCube(n)
			x := code
			empty := false
			for i := 0; i < n; i++ {
				c[i] = logic.Phase(x % 3)
				x /= 3
				_ = empty
			}
			if primeOracle(tt, c) && !seen[c.String()] {
				t.Fatalf("iter %d: prime %v missing from %v (f=%s)", iter, c, primes, tt)
			}
		}
	}
}

func TestMinimalSOPEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(5)
		tt := randomTable(rng, n)
		cover := tt.MinimalSOP()
		if !FromCover(cover).Equal(tt) {
			t.Fatalf("iter %d: MinimalSOP not equivalent (f=%s, cover=%v)", iter, tt, cover)
		}
	}
}

func TestMinimalSOPIrredundant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 120; iter++ {
		n := 1 + rng.Intn(4)
		tt := randomTable(rng, n)
		cover := tt.MinimalSOP()
		for drop := range cover.Cubes {
			smaller := logic.NewCover(n)
			for i, c := range cover.Cubes {
				if i != drop {
					smaller.AddCube(c)
				}
			}
			if FromCover(smaller).Equal(tt) {
				t.Fatalf("iter %d: cube %d of %v is redundant for %s", iter, drop, cover, tt)
			}
		}
	}
}

func TestMinimalSOPUnatePhases(t *testing.T) {
	// For a unate function, the minimal prime cover uses each variable in
	// only its unate phase (primes of unate functions are unate).
	f := Var(3, 0).Or(Var(3, 1).Not().And(Var(3, 2)))
	cover := f.MinimalSOP()
	u := cover.Usage()
	if u[0].Neg != 0 || u[1].Pos != 0 || u[2].Neg != 0 {
		t.Fatalf("unate cover uses wrong phases: %v", cover)
	}
}

func TestMinimalSOPWithDC(t *testing.T) {
	// f = x0*x1 with don't cares on every minterm where x0 != x1: the
	// cover may expand to the single literal x0 (or x1).
	on := Var(2, 0).And(Var(2, 1))
	dc := Var(2, 0).Xor(Var(2, 1))
	cover := on.MinimalSOPWithDC(dc)
	if cover.LiteralCount() != 1 {
		t.Fatalf("cover = %v, want a single literal", cover)
	}
	// The cover must agree with f outside the DC set.
	got := FromCover(cover)
	for m := 0; m < 4; m++ {
		if dc.Get(m) {
			continue
		}
		if got.Get(m) != on.Get(m) {
			t.Fatalf("cover differs from f at care minterm %d", m)
		}
	}
}

func TestMinimalSOPWithDCRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(4)
		on := randomTable(rng, n)
		dc := randomTable(rng, n)
		cover := on.MinimalSOPWithDC(dc)
		got := FromCover(cover)
		for m := 0; m < on.Size(); m++ {
			if dc.Get(m) {
				continue
			}
			if got.Get(m) != on.Get(m) {
				t.Fatalf("iter %d: cover differs at care minterm %d", iter, m)
			}
		}
		// More don't cares can only help: literal count must not exceed
		// the DC-free minimization.
		if cover.LiteralCount() > on.MinimalSOP().LiteralCount() {
			t.Fatalf("iter %d: DC minimization worse than exact", iter)
		}
	}
}

func TestMinimalSOPWithDCFullDC(t *testing.T) {
	on := Var(2, 0)
	dc := Const(2, true)
	cover := on.MinimalSOPWithDC(dc)
	if !cover.IsZero() {
		t.Fatalf("fully-DC function should minimize to constant 0, got %v", cover)
	}
}

// greedyScan is the reference greedy step: it rescans every unselected
// prime for the largest gain, lowest index first, at every pick.
func (pc *primeCover) greedyScan() {
	for pc.remaining > 0 {
		best, bestGain := -1, 0
		for pi, sel := range pc.selected {
			if sel {
				continue
			}
			if g := pc.gain(pi); g > bestGain {
				best, bestGain = pi, g
			}
		}
		if best < 0 {
			break
		}
		pc.take(best)
	}
}

func TestGreedyHeapMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	densities := [][2]int{{9, 10}, {1, 2}, {1, 8}}
	for n := 0; n <= 12; n++ {
		for _, dn := range densities {
			on := densityTable(rng, n, dn[0], dn[1])
			for _, dc := range []*Table{nil, densityTable(rng, n, 1, 4)} {
				_, heapPC := on.primeCover(dc)
				_, scanPC := on.primeCover(dc)
				if heapPC == nil {
					continue
				}
				heapPC.greedy()
				scanPC.greedyScan()
				for pi := range heapPC.selected {
					if heapPC.selected[pi] != scanPC.selected[pi] {
						t.Fatalf("n=%d density=%d/%d dc=%v: prime %d selected %v by the heap, %v by the scan",
							n, dn[0], dn[1], dc != nil, pi, heapPC.selected[pi], scanPC.selected[pi])
					}
				}
				if heapPC.remaining != 0 {
					t.Fatalf("n=%d: %d minterms left uncovered", n, heapPC.remaining)
				}
			}
		}
	}
}

// BenchmarkPrimes measures prime generation per table shape: N variables
// × ON-set density (dense 2/3, sparse 1/64, sparse 1/1024), plus a unate
// table (an OR of N random three-literal cubes, even variables positive and
// odd ones negative), whose primes are also read off its extremal true
// points by the unate shortcut (unate/extremal). Dense N=16 is left out:
// it has over a hundred thousand primes.
func BenchmarkPrimes(b *testing.B) {
	densities := []struct {
		name     string
		num, den int
	}{{"dense", 2, 3}, {"sparse64", 1, 64}, {"sparse1024", 1, 1024}}
	for _, n := range []int{4, 8, 10, 12, 16} {
		for _, d := range densities {
			if n == 16 && d.name == "dense" {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, d.name), func(b *testing.B) {
				f := densityTable(rand.New(rand.NewSource(5)), n, d.num, d.den)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					primesSink = f.Primes()
				}
			})
		}
		rng := rand.New(rand.NewSource(5))
		cv := logic.NewCover(n)
		for c := 0; c < n; c++ {
			cube := logic.NewCube(n)
			for _, i := range rng.Perm(n)[:3] {
				cube[i] = [2]logic.Phase{logic.Pos, logic.Neg}[i%2]
			}
			cv.AddCube(cube)
		}
		f := FromCover(cv)
		b.Run(fmt.Sprintf("n=%d/unate", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				primesSink = f.Primes()
			}
		})
		b.Run(fmt.Sprintf("n=%d/unate/extremal", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				keys, _ := f.unatePrimeKeys()
				primesSink = decodeKeys(n, keys)
			}
		})
	}
}

var primesSink []logic.Cube

// BenchmarkMinimalSOPDense16 covers a random dense 16-variable table,
// about 70 000 primes: the case where a rescanning greedy step is
// quadratic in the prime count.
func BenchmarkMinimalSOPDense16(b *testing.B) {
	tt := densityTable(rand.New(rand.NewSource(1)), 16, 1, 2)
	b.Logf("%d primes", len(tt.primeKeys()))
	for i := 0; i < b.N; i++ {
		tt.MinimalSOP()
	}
}
