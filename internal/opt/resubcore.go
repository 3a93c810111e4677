package opt

import (
	"slices"

	"tels/internal/algebra"
	"tels/internal/logic"
	"tels/internal/netcore"
)

// exprOf re-expresses a net's cover in the network's literal space: the
// variable of a literal is a net's number, so literals order as the nets
// were created.
func exprOf(nw *netcore.Network, m netcore.Net) algebra.Expr {
	fanins := nw.NetFanins(m)
	phases, nCubes, width := nw.NetCubes(m)
	var e algebra.Expr
	for c := 0; c < nCubes; c++ {
		var cube algebra.Cube
		for i := 0; i < width; i++ {
			p := phases[c*width+i]
			if p == logic.DC {
				continue
			}
			cube = append(cube, algebra.MakeLit(int(fanins[i]), p))
		}
		slices.Sort(cube)
		e = append(e, cube)
	}
	return e
}

// cubeOver returns an algebraic cube as a positional cube over width
// fanins, the first len(vars) of them the nets numbered vars, ascending.
func cubeOver(cube algebra.Cube, vars []int, width int) logic.Cube {
	c := logic.NewCube(width)
	for _, l := range cube {
		i, _ := slices.BinarySearch(vars, l.Var())
		c[i] = l.Phase()
	}
	return c
}

// netsOf returns the nets numbered vars.
func netsOf(vars []int) []netcore.Net {
	nets := make([]netcore.Net, len(vars))
	for i, v := range vars {
		nets[i] = netcore.Net(v)
	}
	return nets
}

// rewriteWithDivisorCore rewrites net n as q*div + r, merging any
// duplicate fanins the rewrite creates.
func rewriteWithDivisorCore(nw *netcore.Network, n netcore.Net, q, r algebra.Expr, div netcore.Net) {
	vars := slices.Concat(q, r).Vars()
	fanins := append(netsOf(vars), div)
	cover := logic.NewCover(len(fanins))
	for _, qc := range q {
		c := cubeOver(qc, vars, len(fanins))
		c[len(vars)] = logic.Pos
		cover.AddCube(c)
	}
	for _, rc := range r {
		cover.AddCube(cubeOver(rc, vars, len(fanins)))
	}
	mergeDuplicateFaninsCore(&fanins, &cover)
	nw.SetFunction(n, fanins, cover)
}

// litSet is the set of literals an expression uses, as a bitset (bit l
// for literal l) trimmed to the words from its lowest literal to its
// highest: words[0] holds literals 64·base to 64·base+63.
type litSet struct {
	base  int
	words []uint64
}

// litsOf returns the set of literals e uses.
func litsOf(e algebra.Expr) litSet {
	lo, hi := -1, -1
	for _, c := range e {
		for _, l := range c {
			w := int(l) / 64
			if lo < 0 || w < lo {
				lo = w
			}
			hi = max(hi, w)
		}
	}
	if lo < 0 {
		return litSet{}
	}
	s := litSet{base: lo, words: make([]uint64, hi-lo+1)}
	for _, c := range e {
		for _, l := range c {
			s.words[int(l)/64-lo] |= 1 << (uint(l) % 64)
		}
	}
	return s
}

// subsetOf reports whether every literal of s is in t. The first and last
// words of a non-empty set are non-zero, so a set reaching past t's words
// is not a subset.
func (s litSet) subsetOf(t litSet) bool {
	if len(s.words) == 0 {
		return true
	}
	off := s.base - t.base
	if off < 0 || off+len(s.words) > len(t.words) {
		return false
	}
	for i, w := range s.words {
		if w&^t.words[off+i] != 0 {
			return false
		}
	}
	return true
}

// ResubCore performs algebraic resubstitution, the SIS resub pass: each
// net's cover is divided by every other existing net's function, and when
// the division saves literals the net is rewritten to reuse that net as a
// divisor. Unlike Extract, no new nodes are created — existing shared
// logic is simply rediscovered. Returns the number of rewrites.
//
// A divisor using a literal the net's cover lacks has an empty weak
// quotient, so it is skipped before dividing: most pairs fail that way.
func ResubCore(nw *netcore.Network) int {
	rewrites := 0
	for pass := 0; pass < 4; pass++ {
		changed := 0
		internals := nw.InternalNets()
		order, err := nw.TopoNets()
		if err != nil {
			panic(err)
		}
		topoIdx := make(map[netcore.Net]int, len(order))
		for i, n := range order {
			topoIdx[n] = i
		}
		// Per internal net, by position in internals: its expression, the
		// expression's literals and its topological index.
		exprs := make([]algebra.Expr, len(internals))
		lits := make([]litSet, len(internals))
		topo := make([]int, len(internals))
		for i, n := range internals {
			exprs[i] = exprOf(nw, n)
			lits[i] = litsOf(exprs[i])
			topo[i] = topoIdx[n]
		}
		for i, n := range internals {
			best := 0
			var bestQ, bestR algebra.Expr
			bestDiv := netcore.InvalidNet
			e := exprs[i]
			if len(e) < 2 {
				continue
			}
			for j, d := range internals {
				if j == i || len(exprs[j]) < 2 {
					continue
				}
				// Using d as a fanin of n adds the edge n→d; any path from
				// n to d would close a cycle, and topological precedence of
				// d rules that out.
				if topo[j] >= topo[i] {
					continue
				}
				if !lits[j].subsetOf(lits[i]) {
					continue
				}
				q, r := algebra.WeakDiv(e, exprs[j])
				if len(q) == 0 {
					continue
				}
				after := q.Literals() + len(q) + r.Literals()
				if save := e.Literals() - after; save > best {
					best, bestQ, bestR, bestDiv = save, q, r, d
				}
			}
			if bestDiv == netcore.InvalidNet {
				continue
			}
			rewriteWithDivisorCore(nw, n, bestQ, bestR, bestDiv)
			exprs[i] = exprOf(nw, n)
			lits[i] = litsOf(exprs[i])
			changed++
			rewrites++
		}
		nw.RemoveDangling()
		if changed == 0 {
			break
		}
	}
	return rewrites
}
