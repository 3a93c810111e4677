package logic

// This file implements cover-based two-level minimization in the espresso
// style: EXPAND raises each cube to a prime against the OFF-set, and
// IRREDUNDANT drops cubes covered by the rest of the cover. Unlike the
// truth-table route in package truth, it works directly on covers, so the
// optimizer can minimize nodes too wide for explicit tables.

// MinimizeMaxComplement bounds the complement size Minimize is willing to
// work against; covers whose OFF-sets explode are returned unchanged
// (minus single-cube containment).
const MinimizeMaxComplement = 512

// Minimize returns an equivalent cover in which every cube is prime and
// no cube is redundant, running the espresso loop EXPAND → IRREDUNDANT →
// REDUCE → EXPAND → IRREDUNDANT. The result is a local optimum, not a
// guaranteed minimum cover.
//
// A syntactically unate cover is returned right after single-cube
// containment: with no cube inside another, its cubes are exactly the
// primes of the function, each one essential (Brayton et al. 1984), so
// the loop would return them unchanged, at the cost of a complement.
func (f Cover) Minimize() Cover {
	g := f.SCC()
	if g.mostBinate() < 0 {
		return g // at most one cube, or syntactically unate
	}
	return g.espresso()
}

// espresso runs the espresso loop on an SCC'd cover of at least two
// cubes, keeping the better of the first and second EXPAND/IRREDUNDANT
// passes; a cover whose OFF-set passes MinimizeMaxComplement cubes is
// returned as it is.
func (g Cover) espresso() Cover {
	off := g.Complement()
	if len(off.Cubes) > MinimizeMaxComplement {
		return g
	}
	first := g.expandIrredundant(off)
	reduced := first.reduce()
	second := reduced.expandIrredundant(off)
	if second.LiteralCount() < first.LiteralCount() ||
		(second.LiteralCount() == first.LiteralCount() && len(second.Cubes) < len(first.Cubes)) {
		return second
	}
	return first
}

// expandIrredundant runs one EXPAND (against the given OFF-set) followed
// by IRREDUNDANT.
func (g Cover) expandIrredundant(off Cover) Cover {
	// EXPAND: raise literals to don't-care while the cube stays disjoint
	// from the OFF-set. Positions are tried in order of how many other
	// cubes would absorb the expansion (cheapest first keeps it simple:
	// left to right).
	expanded := NewCover(g.N)
	for _, c := range g.Cubes {
		cube := c.Clone()
		for i := 0; i < g.N; i++ {
			if cube[i] == DC {
				continue
			}
			saved := cube[i]
			cube[i] = DC
			if intersectsCover(cube, off) {
				cube[i] = saved
			}
		}
		expanded.AddCube(cube)
	}
	expanded = expanded.SCC()
	// IRREDUNDANT: greedily drop cubes covered by the remaining cover.
	result := expanded
	for i := 0; i < len(result.Cubes); {
		rest := NewCover(result.N)
		for j, c := range result.Cubes {
			if j != i {
				rest.AddCube(c)
			}
		}
		if coverContainsCube(rest, result.Cubes[i]) {
			result = rest
			continue
		}
		i++
	}
	return result
}

// reduce shrinks each cube to the smallest cube covering the minterms no
// other cube covers (cubes entirely covered elsewhere are dropped). A
// reduced cover gives the following EXPAND different directions to grow
// in, which is how the espresso loop escapes the first local optimum.
//
// Cubes are reduced in order against the rest of the cover: the cubes
// already reduced and the ones still to come. Only the part of the rest
// that meets cube c matters, since c ∧ ¬rest = c ∧ ¬(rest cofactored by
// c), so REDUCE complements that cofactor, which is free of c's variables
// and usually much smaller than the rest (Brayton et al. 1984). The
// reduced cube is the supercube of the complement with c's literals
// written back in; a supercube depends only on the minterms, not on the
// cubes that list them.
func (f Cover) reduce() Cover {
	out := NewCover(f.N)
	for i, c := range f.Cubes {
		rest := NewCover(f.N)
		rest.Cubes = append(append(rest.Cubes, out.Cubes...), f.Cubes[i+1:]...)
		comp := rest.cofactorCube(c).Complement()
		if comp.IsZero() {
			continue // fully covered by the others
		}
		sc := supercube(comp)
		for v, p := range c {
			if p != DC {
				sc[v] = p
			}
		}
		out.AddCube(sc)
	}
	return out
}

// supercube returns the smallest cube containing every minterm of the
// cover: a position keeps a literal only when all cubes agree on a non-DC
// phase there.
func supercube(f Cover) Cube {
	sc := f.Cubes[0].Clone()
	for _, c := range f.Cubes[1:] {
		for i := range sc {
			if sc[i] != c[i] {
				sc[i] = DC
			}
		}
	}
	return sc
}

// intersectsCover reports whether the cube shares any minterm with the
// cover.
func intersectsCover(c Cube, f Cover) bool {
	for _, d := range f.Cubes {
		if c.Distance(d) == 0 {
			return true
		}
	}
	return false
}

// coverContainsCube reports whether every minterm of the cube is covered
// by f, via the standard cofactor-tautology test.
func coverContainsCube(f Cover, c Cube) bool {
	return f.cofactorCube(c).Tautology()
}

// cofactorCube returns the cofactor of f with respect to cube c: the cubes
// of f that meet c, with the positions c fixes raised to DC.
func (f Cover) cofactorCube(c Cube) Cover {
	cof := NewCover(f.N)
	for _, d := range f.Cubes {
		if c.Distance(d) != 0 {
			continue
		}
		e := d.Clone()
		for i, p := range c {
			if p != DC {
				e[i] = DC
			}
		}
		cof.AddCube(e)
	}
	return cof
}
