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

// FuzzCover checks SCC and Cofactor against brute-force evaluation on
// every minterm.
func FuzzCover(f *testing.F) {
	f.Add([]byte{3, 1, 1, 2, 0, 2, 1})
	f.Add([]byte{2, 2, 2})
	f.Add([]byte{4, 1, 1, 2, 2, 1, 1, 2, 2, 0, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		fn := decodeCover(data)
		n := fn.N
		on := make([]bool, 1<<uint(n))
		for m := range on {
			on[m] = fn.Eval(assignment(n, m))
		}

		scc := fn.SCC()
		for m, v := range on {
			if scc.Eval(assignment(n, m)) != v {
				t.Fatalf("%v: SCC %v wrong at minterm %d", fn, scc, m)
			}
		}
		for i, c := range scc.Cubes {
			for j, d := range scc.Cubes {
				if i != j && d.Contains(c) {
					t.Fatalf("%v: SCC %v keeps cube %d inside cube %d", fn, scc, i, j)
				}
			}
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
