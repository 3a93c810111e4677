package logic

import "testing"

// decodeCover reads a cover from fuzz bytes: the first byte picks the
// variable count (0..10), then every run of that many bytes is one cube,
// one phase per byte (up to 12 cubes).
func decodeCover(data []byte) Cover {
	if len(data) == 0 {
		return NewCover(0)
	}
	n := int(data[0]) % 11
	f := NewCover(n)
	rest := data[1:]
	for n > 0 && len(rest) >= n && len(f.Cubes) < 12 {
		c := NewCube(n)
		for i := range c {
			c[i] = Phase(rest[i] % 3)
		}
		f.AddCube(c)
		rest = rest[n:]
	}
	return f
}

// assignment is minterm m as a variable assignment, variable i in bit i.
func assignment(n, m int) []bool {
	a := make([]bool, n)
	for i := range a {
		a[i] = m&(1<<uint(i)) != 0
	}
	return a
}

// cubeInside reports whether every minterm of c satisfies f.
func cubeInside(c Cube, f Cover) bool {
	for m := 0; m < 1<<uint(len(c)); m++ {
		a := assignment(len(c), m)
		if c.Eval(a) && !f.Eval(a) {
			return false
		}
	}
	return true
}

// bruteReduce is REDUCE by minterm enumeration: cube by cube, the
// supercube of the minterms the cube covers and the rest of the cover
// (cubes already reduced, then cubes still to come) does not; a cube with
// no such minterm is dropped.
func bruteReduce(f Cover) Cover {
	n := f.N
	out := NewCover(n)
	for i, c := range f.Cubes {
		rest := NewCover(n)
		rest.Cubes = append(append(rest.Cubes, out.Cubes...), f.Cubes[i+1:]...)
		var sc Cube
		for m := 0; m < 1<<uint(n); m++ {
			a := assignment(n, m)
			if !c.Eval(a) || rest.Eval(a) {
				continue
			}
			if sc == nil {
				sc = NewCube(n)
				for v, on := range a {
					sc[v] = Neg
					if on {
						sc[v] = Pos
					}
				}
				continue
			}
			for v, on := range a {
				if sc[v] != DC && (sc[v] == Pos) != on {
					sc[v] = DC
				}
			}
		}
		if sc != nil {
			out.AddCube(sc)
		}
	}
	return out
}

// FuzzCover checks Complement, Minimize, REDUCE, Tautology, Cofactor and
// SCC against brute-force evaluation on every minterm, and Minimize's
// unate shortcut against the espresso loop.
func FuzzCover(f *testing.F) {
	f.Add([]byte{3, 1, 1, 2, 0, 2, 1})
	f.Add([]byte{2, 2, 2})
	f.Add([]byte{4, 1, 1, 2, 2, 1, 1, 2, 2, 0, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		fn := decodeCover(data)
		n := fn.N
		on := make([]bool, 1<<uint(n))
		taut := true
		for m := range on {
			on[m] = fn.Eval(assignment(n, m))
			taut = taut && on[m]
		}
		if got := fn.Tautology(); got != taut {
			t.Fatalf("%v: Tautology = %v, want %v", fn, got, taut)
		}

		comp := fn.Complement()
		scc := fn.SCC()
		minimized := fn.Minimize()
		for m, v := range on {
			a := assignment(n, m)
			if comp.Eval(a) == v {
				t.Fatalf("%v: Complement %v wrong at minterm %d", fn, comp, m)
			}
			if scc.Eval(a) != v {
				t.Fatalf("%v: SCC %v wrong at minterm %d", fn, scc, m)
			}
			if minimized.Eval(a) != v {
				t.Fatalf("%v: Minimize %v wrong at minterm %d", fn, minimized, m)
			}
		}

		for i, c := range scc.Cubes {
			for j, d := range scc.Cubes {
				if i != j && d.Contains(c) {
					t.Fatalf("%v: SCC %v keeps cube %d inside cube %d", fn, scc, i, j)
				}
			}
		}

		// Past the trivial and complement-bounded cases, every cube of
		// Minimize is prime and none is redundant.
		if len(scc.Cubes) > 1 && len(comp.Cubes) <= MinimizeMaxComplement {
			for i, c := range minimized.Cubes {
				for v, p := range c {
					if p == DC {
						continue
					}
					raised := c.Clone()
					raised[v] = DC
					if cubeInside(raised, fn) {
						t.Fatalf("%v: Minimize cube %v is not prime at variable %d", fn, c, v)
					}
				}
				rest := NewCover(n)
				rest.Cubes = append(append(rest.Cubes, minimized.Cubes[:i]...), minimized.Cubes[i+1:]...)
				if cubeInside(c, rest) {
					t.Fatalf("%v: Minimize cube %v is redundant", fn, c)
				}
			}
		}

		// The same cubes with every literal of a variable in the phase of
		// its first literal are syntactically unate: Minimize must return
		// what the espresso loop it skips returns.
		unate := fn.Clone()
		for v := 0; v < n; v++ {
			first := DC
			for _, c := range unate.Cubes {
				if first == DC {
					first = c[v]
				}
				if c[v] != DC {
					c[v] = first
				}
			}
		}
		checkUnateShortcut(t, unate)

		if got, want := fn.reduce(), bruteReduce(fn); got.String() != want.String() {
			t.Fatalf("%v: reduce = %v, want %v", fn, got, want)
		}

		for v := 0; v < n; v++ {
			for _, ph := range []Phase{Neg, Pos} {
				cof := fn.Cofactor(v, ph)
				for _, c := range cof.Cubes {
					if c[v] != DC {
						t.Fatalf("%v: Cofactor(%d, %v) keeps variable %d", fn, v, ph, v)
					}
				}
				for m := range on {
					fixed := m &^ (1 << uint(v))
					if ph == Pos {
						fixed |= 1 << uint(v)
					}
					if cof.Eval(assignment(n, m)) != on[fixed] {
						t.Fatalf("%v: Cofactor(%d, %v) wrong at minterm %d", fn, v, ph, m)
					}
				}
			}
		}
	})
}
