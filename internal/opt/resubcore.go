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

// ResubCore performs algebraic resubstitution, the SIS resub pass: each
// net's cover is divided by every other existing net's function, and when
// the division saves literals the net is rewritten to reuse that net as a
// divisor. Unlike Extract, no new nodes are created — existing shared
// logic is simply rediscovered. Returns the number of rewrites.
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
		exprs := make(map[netcore.Net]algebra.Expr, len(internals))
		for _, n := range internals {
			exprs[n] = space.exprOf(n)
		}
		for _, n := range internals {
			best := 0
			var bestQ, bestR algebra.Expr
			bestDiv := netcore.InvalidNet
			e := exprs[n]
			if len(e) < 2 {
				continue
			}
			for _, d := range internals {
				if d == n || len(exprs[d]) < 2 {
					continue
				}
				// Using d as a fanin of n adds the edge n→d; any path from
				// n to d would close a cycle, and topological precedence of
				// d rules that out.
				if topoIdx[d] >= topoIdx[n] {
					continue
				}
				q, r := algebra.WeakDiv(e, exprs[d])
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
			exprs[n] = space.exprOf(n)
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
