package opt

import (
	"sort"

	"tels/internal/algebra"
	"tels/internal/logic"
	"tels/internal/netcore"
)

// signalSpaceCore maps nets to contiguous variable indices (their
// creation-order positions), the literal space of algebraic division.
type signalSpaceCore struct {
	nw    *netcore.Network
	index map[netcore.Net]int
	nets  []netcore.Net
}

func newSignalSpaceCore(nw *netcore.Network) *signalSpaceCore {
	s := &signalSpaceCore{nw: nw, index: make(map[netcore.Net]int)}
	for _, n := range nw.Nets() {
		s.index[n] = len(s.nets)
		s.nets = append(s.nets, n)
	}
	return s
}

// exprOf re-expresses a net's cover in the global space.
func (s *signalSpaceCore) exprOf(m netcore.Net) algebra.Expr {
	fanins := s.nw.NetFanins(m)
	phases, nCubes, width := s.nw.NetCubes(m)
	var e algebra.Expr
	for c := 0; c < nCubes; c++ {
		var cube algebra.Cube
		for i := 0; i < width; i++ {
			p := phases[c*width+i]
			if p == logic.DC {
				continue
			}
			cube = append(cube, algebra.MakeLit(s.index[fanins[i]], p))
		}
		sort.Slice(cube, func(a, b int) bool { return cube[a] < cube[b] })
		e = append(e, cube)
	}
	return e
}

// rewriteWithDivisorCore rewrites net n as q*div + r, merging any
// duplicate fanins the rewrite creates.
func (s *signalSpaceCore) rewriteWithDivisorCore(n netcore.Net, q, r algebra.Expr, div netcore.Net) {
	varSet := make(map[int]bool)
	for _, e := range []algebra.Expr{q, r} {
		for _, v := range e.Vars() {
			varSet[v] = true
		}
	}
	vars := make([]int, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	pos := make(map[int]int, len(vars))
	fanins := make([]netcore.Net, 0, len(vars)+1)
	for i, v := range vars {
		pos[v] = i
		fanins = append(fanins, s.nets[v])
	}
	divPos := len(fanins)
	fanins = append(fanins, div)

	cover := logic.NewCover(len(fanins))
	for _, qc := range q {
		c := logic.NewCube(len(fanins))
		for _, l := range qc {
			c[pos[l.Var()]] = l.Phase()
		}
		c[divPos] = logic.Pos
		cover.AddCube(c)
	}
	for _, rc := range r {
		c := logic.NewCube(len(fanins))
		for _, l := range rc {
			c[pos[l.Var()]] = l.Phase()
		}
		cover.AddCube(c)
	}
	mergeDuplicateFaninsCore(&fanins, &cover)
	s.nw.SetFunction(n, fanins, cover)
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
		space := newSignalSpaceCore(nw)
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
			exprs[i] = space.exprOf(n)
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
			space.rewriteWithDivisorCore(n, bestQ, bestR, bestDiv)
			exprs[i] = space.exprOf(n)
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
