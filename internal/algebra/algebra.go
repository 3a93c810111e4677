// Package algebra implements the algebraic (weak) division and kernel
// machinery used for multi-level factorization, following the classical
// Brayton–McMullen formulation that SIS implements. Algebraic expressions
// treat x and !x as unrelated literals; this is exactly what makes the
// extracted network "algebraically factored", the input form the TELS
// synthesis algorithm expects.
package algebra

import (
	"sort"

	"tels/internal/logic"
)

// Lit is an algebraic literal: variable index v in positive phase is 2v,
// in negative phase 2v+1.
type Lit int

// MakeLit builds a literal from a variable index and phase.
func MakeLit(v int, ph logic.Phase) Lit {
	switch ph {
	case logic.Pos:
		return Lit(2 * v)
	case logic.Neg:
		return Lit(2*v + 1)
	}
	panic("algebra: literal from DC phase")
}

// Var returns the variable index of the literal.
func (l Lit) Var() int { return int(l) / 2 }

// Phase returns the phase of the literal.
func (l Lit) Phase() logic.Phase {
	if l%2 == 0 {
		return logic.Pos
	}
	return logic.Neg
}

// Cube is a product of literals, kept sorted and duplicate-free.
type Cube []Lit

// Expr is an algebraic SOP: a set of cubes (their OR).
type Expr []Cube

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

// Clone returns a deep copy.
func (e Expr) Clone() Expr {
	out := make(Expr, len(e))
	for i, c := range e {
		out[i] = append(Cube(nil), c...)
	}
	return out
}

// Literals returns the total literal count of the expression.
func (e Expr) Literals() int {
	n := 0
	for _, c := range e {
		n += len(c)
	}
	return n
}

// cubeContainsAll reports whether cube c includes every literal of d.
func cubeContainsAll(c, d Cube) bool {
	i := 0
	for _, l := range d {
		for i < len(c) && c[i] < l {
			i++
		}
		if i >= len(c) || c[i] != l {
			return false
		}
		i++
	}
	return true
}

// cubeMinus returns c with the literals of d removed (d must be contained).
func cubeMinus(c, d Cube) Cube {
	var out Cube
	j := 0
	for _, l := range c {
		if j < len(d) && d[j] == l {
			j++
			continue
		}
		out = append(out, l)
	}
	return out
}

// cubeUnion returns the sorted union of two cubes.
func cubeUnion(c, d Cube) Cube {
	out := make(Cube, 0, len(c)+len(d))
	i, j := 0, 0
	for i < len(c) && j < len(d) {
		switch {
		case c[i] < d[j]:
			out = append(out, c[i])
			i++
		case c[i] > d[j]:
			out = append(out, d[j])
			j++
		default:
			out = append(out, c[i])
			i++
			j++
		}
	}
	out = append(out, c[i:]...)
	out = append(out, d[j:]...)
	return out
}

// cubeKey encodes a cube as a string map key: four big-endian bytes per
// literal, so distinct cubes get distinct keys for every literal below
// 2^31 and, below 2^16, sort as the cubes compare literal by literal.
func cubeKey(c Cube) string {
	b := make([]byte, 0, len(c)*4)
	for _, l := range c {
		b = append(b, byte(l>>24), byte(l>>16), byte(l>>8), byte(l))
	}
	return string(b)
}

// CommonCube returns the largest cube dividing every cube of e (the
// literals common to all cubes). Nil if e is empty or has no common
// literal.
func (e Expr) CommonCube() Cube {
	if len(e) == 0 {
		return nil
	}
	common := append(Cube(nil), e[0]...)
	for _, c := range e[1:] {
		var kept Cube
		for _, l := range common {
			if containsLit(c, l) {
				kept = append(kept, l)
			}
		}
		common = kept
		if len(common) == 0 {
			return nil
		}
	}
	return common
}

func containsLit(c Cube, l Lit) bool {
	i := sort.Search(len(c), func(i int) bool { return c[i] >= l })
	return i < len(c) && c[i] == l
}

// IsCubeFree reports whether no single literal divides every cube and the
// expression has more than one cube (a single cube is never cube-free).
func (e Expr) IsCubeFree() bool {
	if len(e) <= 1 {
		return false
	}
	return len(e.CommonCube()) == 0
}

// MakeCubeFree returns the expression divided by its common cube.
func (e Expr) MakeCubeFree() Expr {
	cc := e.CommonCube()
	if len(cc) == 0 {
		return e.Clone()
	}
	out := make(Expr, len(e))
	for i, c := range e {
		out[i] = cubeMinus(c, cc)
	}
	return out
}

// DivideByCube returns the quotient and remainder of e divided by a single
// cube d: quotient cubes are those containing d, with d removed.
func (e Expr) DivideByCube(d Cube) (quotient, remainder Expr) {
	for _, c := range e {
		if cubeContainsAll(c, d) {
			quotient = append(quotient, cubeMinus(c, d))
		} else {
			remainder = append(remainder, append(Cube(nil), c...))
		}
	}
	return quotient, remainder
}

// WeakDiv computes the algebraic (weak) division e / d, returning the
// quotient q and remainder r such that e = q*d + r with q maximal. The
// quotient is the intersection of e's quotients by each cube of d, so it
// is empty whenever some literal of d occurs in no cube of e; callers
// dividing many pairs can skip those without dividing. Quotient cubes come
// in cubeKey order.
func WeakDiv(e, d Expr) (q, r Expr) {
	if len(d) == 0 {
		return nil, e.Clone()
	}
	var inter map[string]Cube
	for i, dc := range d {
		qi, _ := e.DivideByCube(dc)
		set := make(map[string]Cube, len(qi))
		for _, c := range qi {
			set[cubeKey(c)] = c
		}
		if i == 0 {
			inter = set
			continue
		}
		for k := range inter {
			if _, ok := set[k]; !ok {
				delete(inter, k)
			}
		}
		if len(inter) == 0 {
			break
		}
	}
	if len(inter) == 0 {
		return nil, e.Clone()
	}
	keys := make([]string, 0, len(inter))
	for k := range inter {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q = append(q, inter[k])
	}
	// r = e - q*d (cube-set difference).
	product := make(map[string]bool, len(q)*len(d))
	for _, qc := range q {
		for _, dc := range d {
			product[cubeKey(cubeUnion(qc, dc))] = true
		}
	}
	for _, c := range e {
		if !product[cubeKey(c)] {
			r = append(r, append(Cube(nil), c...))
		}
	}
	return q, r
}

// Kernel is a cube-free quotient of the expression by one of its
// co-kernels.
type Kernel struct {
	CoKernel Cube
	Expr     Expr
}

// Kernels enumerates all kernels of the expression (including, when the
// expression is itself cube-free, the expression with the empty
// co-kernel), using the classical recursive literal-division algorithm.
func Kernels(e Expr) []Kernel {
	seen := make(map[string]bool)
	var out []Kernel

	add := func(coK Cube, k Expr) {
		key := exprKey(k)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Kernel{CoKernel: coK, Expr: k.Clone()})
	}

	// Literal universe, sorted.
	litSet := make(map[Lit]bool)
	for _, c := range e {
		for _, l := range c {
			litSet[l] = true
		}
	}
	lits := make([]Lit, 0, len(litSet))
	for l := range litSet {
		lits = append(lits, l)
	}
	sort.Slice(lits, func(i, j int) bool { return lits[i] < lits[j] })

	var rec func(f Expr, coK Cube, minLitIdx int)
	rec = func(f Expr, coK Cube, minLitIdx int) {
		for idx := minLitIdx; idx < len(lits); idx++ {
			l := lits[idx]
			cnt := 0
			for _, c := range f {
				if containsLit(c, l) {
					cnt++
				}
			}
			if cnt < 2 {
				continue
			}
			q, _ := f.DivideByCube(Cube{l})
			cc := q.CommonCube()
			// Skip if a smaller-indexed literal divides the quotient: that
			// kernel is found through the other literal (standard pruning).
			skip := false
			for _, cl := range cc {
				ci := sort.Search(len(lits), func(i int) bool { return lits[i] >= cl })
				if ci < idx {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			k := q.MakeCubeFree()
			newCoK := cubeUnion(cubeUnion(coK, Cube{l}), cc)
			add(newCoK, k)
			rec(k, newCoK, idx+1)
		}
	}

	free := e.MakeCubeFree()
	if len(free) > 1 {
		add(e.CommonCube(), free)
	}
	rec(e, nil, 0)
	return out
}

// Level0 reports whether the kernel expression has no kernels other than
// itself (no literal appears in two or more of its cubes).
func Level0(k Expr) bool {
	count := make(map[Lit]int)
	for _, c := range k {
		for _, l := range c {
			count[l]++
			if count[l] >= 2 {
				return false
			}
		}
	}
	return true
}

func exprKey(e Expr) string {
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

// Equal reports whether two expressions are the same cube set.
func Equal(a, b Expr) bool {
	return exprKey(a) == exprKey(b)
}

// Vars returns the sorted variable indices used by the expression.
func (e Expr) Vars() []int {
	set := make(map[int]bool)
	for _, c := range e {
		for _, l := range c {
			set[l.Var()] = true
		}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
