// Package algebra implements the algebraic (weak) division and kernel
// machinery used for multi-level factorization, following the classical
// Brayton–McMullen formulation that SIS implements. Algebraic expressions
// treat x and !x as unrelated literals; this is exactly what makes the
// extracted network "algebraically factored", the input form the TELS
// synthesis algorithm expects.
package algebra

import (
	"cmp"
	"slices"

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

// Compare orders two expressions whose cubes are each in ascending
// slices.Compare order, the order WeakDiv quotients and kernels come in.
// Cubes are compared in turn, literal by literal; an expression that runs
// out of cubes first sorts first, but a cube sorts after its own proper
// extension ([[1]] after [[1 2]]). That rule keeps extract's candidate
// order and tie-breaks as byte keys gave them: four big-endian bytes per
// literal below 2^31, each cube closed by 0xff (the keys algebra_test.go
// checks against). It returns 0 only for equal cube lists.
func Compare(a, b Expr) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		x, y := a[i], b[i]
		for j := 0; j < len(x) && j < len(y); j++ {
			if x[j] != y[j] {
				return cmp.Compare(x[j], y[j])
			}
		}
		if len(x) != len(y) {
			return cmp.Compare(len(y), len(x))
		}
	}
	return cmp.Compare(len(a), len(b))
}

// sortCubes puts e's cubes in ascending order.
func sortCubes(e Expr) { slices.SortFunc(e, slices.Compare[Cube]) }

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
	_, ok := slices.BinarySearch(c, l)
	return ok
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
// in ascending order, without duplicates; remainder cubes in e's order.
func WeakDiv(e, d Expr) (q, r Expr) {
	if len(d) == 0 {
		return nil, e.Clone()
	}
	for i, dc := range d {
		var qi Expr
		for _, c := range e {
			if cubeContainsAll(c, dc) {
				qi = append(qi, cubeMinus(c, dc))
			}
		}
		sortCubes(qi)
		qi = slices.CompactFunc(qi, slices.Equal[Cube])
		if i == 0 {
			q = qi
		} else {
			q = slices.DeleteFunc(q, func(c Cube) bool { return !hasCube(qi, c) })
		}
		if len(q) == 0 {
			return nil, e.Clone()
		}
	}
	// r = e - q*d (cube-set difference).
	product := make(Expr, 0, len(q)*len(d))
	for _, qc := range q {
		for _, dc := range d {
			product = append(product, cubeUnion(qc, dc))
		}
	}
	sortCubes(product)
	for _, c := range e {
		if !hasCube(product, c) {
			r = append(r, append(Cube(nil), c...))
		}
	}
	return q, r
}

// hasCube reports whether c is in the ascending cube list e.
func hasCube(e Expr, c Cube) bool {
	_, ok := slices.BinarySearchFunc(e, c, slices.Compare[Cube])
	return ok
}

// Kernel is a cube-free quotient of the expression by one of its
// co-kernels: the quotient e.DivideByCube(CoKernel), its cubes in
// ascending order.
type Kernel struct {
	CoKernel Cube
	Expr     Expr
}

// Kernels enumerates all kernels of the expression (including, when the
// expression is itself cube-free, the expression with the empty
// co-kernel), using the classical recursive literal-division algorithm.
// Kernels come in ascending Compare order, one per cube set; of the
// co-kernels that give the same kernel, the first one found is kept.
func Kernels(e Expr) []Kernel {
	var out []Kernel
	add := func(coK Cube, k Expr) {
		sortCubes(k)
		out = append(out, Kernel{CoKernel: coK, Expr: k})
	}

	// Literal universe, sorted.
	var lits []Lit
	for _, c := range e {
		lits = append(lits, c...)
	}
	slices.Sort(lits)
	lits = slices.Compact(lits)

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
				if ci, _ := slices.BinarySearch(lits, cl); ci < idx {
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
	slices.SortStableFunc(out, func(a, b Kernel) int { return Compare(a.Expr, b.Expr) })
	return slices.CompactFunc(out, func(a, b Kernel) bool { return Compare(a.Expr, b.Expr) == 0 })
}

// Vars returns the sorted variable indices used by the expression.
func (e Expr) Vars() []int {
	var out []int
	for _, c := range e {
		for _, l := range c {
			out = append(out, l.Var())
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
