package opt

import (
	"cmp"
	"fmt"
	"slices"

	"tels/internal/algebra"
	"tels/internal/logic"
	"tels/internal/netcore"
)

// Extraction tuning knobs. Kernel enumeration is exponential in the worst
// case; nodes beyond these bounds contribute only cube divisors.
const (
	extractMaxCubesPerNode = 30  // enumerate kernels only for nodes this small
	extractMaxKernelCubes  = 12  // ignore kernels larger than this
	extractMaxIters        = 400 // global greedy iterations
)

// ExtractCore performs greedy algebraic extraction: it repeatedly finds
// the kernel and cube divisors whose reuse across the network saves the
// most literals, creates new nets for them, and re-expresses every
// affected net through weak division. This is the factorization step that
// turns a flat network into the algebraically-factored multi-level form
// TELS consumes. Divisors that do not touch the same nets are extracted
// in one round, so large regular networks converge in a few rounds. It
// returns the number of divisors extracted.
func ExtractCore(nw *netcore.Network) int {
	extracted := 0
	for iter := 0; iter < extractMaxIters; iter++ {
		n := extractRound(nw, extracted)
		if n == 0 {
			break
		}
		extracted += n
	}
	return extracted
}

// divisorCover converts an expression into a cover over the nets it
// uses, in ascending order.
func divisorCover(e algebra.Expr) ([]netcore.Net, logic.Cover) {
	vars := e.Vars()
	cover := logic.NewCover(len(vars))
	for _, cube := range e {
		cover.AddCube(cubeOver(cube, vars, len(vars)))
	}
	return netsOf(vars), cover
}

// candidate is a divisor; its cubes are in ascending order. A kernel
// candidate also keeps the first node it was found in (src) and its
// co-kernel there: the divisor's net lists the kernel's cubes in that
// node's order, exprs[src].DivideByCube(coK). A cube candidate has src -1.
// A valued candidate saves value literals through the divisions in uses.
type candidate struct {
	expr  algebra.Expr
	src   int
	coK   algebra.Cube
	value int
	uses  []division
}

// division is node = q·divisor + r, a rewrite that saves literals.
type division struct {
	node int
	q, r algebra.Expr
}

func extractRound(nw *netcore.Network, serial int) int {
	internals := nw.InternalNets()
	exprs := make([]algebra.Expr, len(internals))
	lits := make([]litSet, len(internals))
	for i, n := range internals {
		exprs[i] = exprOf(nw, n)
		lits[i] = litsOf(exprs[i])
	}

	// Candidate kernels.
	var cands []candidate
	for i, e := range exprs {
		if len(e) < 2 || len(e) > extractMaxCubesPerNode {
			continue
		}
		for _, k := range algebra.Kernels(e) {
			if len(k.Expr) < 2 || len(k.Expr) > extractMaxKernelCubes {
				continue
			}
			cands = append(cands, candidate{expr: k.Expr, src: i, coK: k.CoKernel})
		}
	}
	// Candidate cube divisors: literal pairs occurring in ≥3 cubes.
	pairCount := make(map[[2]algebra.Lit]int)
	for _, e := range exprs {
		for _, c := range e {
			for a := 0; a < len(c); a++ {
				for b := a + 1; b < len(c); b++ {
					pairCount[[2]algebra.Lit{c[a], c[b]}]++
				}
			}
		}
	}
	for pair, cnt := range pairCount {
		if cnt >= 3 {
			cands = append(cands, candidate{expr: algebra.Expr{algebra.Cube{pair[0], pair[1]}}, src: -1})
		}
	}
	// One candidate per cube set, the first found, in Compare order.
	slices.SortStableFunc(cands, func(a, b candidate) int { return algebra.Compare(a.expr, b.expr) })
	cands = slices.CompactFunc(cands, func(a, b candidate) bool { return algebra.Compare(a.expr, b.expr) == 0 })
	if len(cands) == 0 {
		return 0
	}

	// Value each candidate by total literal savings over all nodes.
	divide := func(e algebra.Expr, d algebra.Expr) (algebra.Expr, algebra.Expr) {
		if len(d) == 1 {
			return e.DivideByCube(d[0])
		}
		return algebra.WeakDiv(e, d)
	}
	var ranked []*candidate
	for ci := range cands {
		c := &cands[ci]
		cl := litsOf(c.expr)
		var uses []division
		value := -c.expr.Literals()
		for i, e := range exprs {
			if !cl.subsetOf(lits[i]) {
				continue
			}
			q, r := divide(e, c.expr)
			if len(q) == 0 {
				continue
			}
			after := q.Literals() + len(q) + r.Literals()
			if save := e.Literals() - after; save > 0 {
				value += save
				uses = append(uses, division{i, q, r})
			}
		}
		if value >= 1 {
			c.value, c.uses = value, uses
			ranked = append(ranked, c)
		}
	}
	if len(ranked) == 0 {
		return 0
	}
	slices.SortStableFunc(ranked, func(a, b *candidate) int { return cmp.Compare(b.value, a.value) })

	// Extract candidates best-first; a node rewritten this round is stale,
	// so later candidates touching it are deferred to the next round.
	touched := make([]bool, len(internals))
	extracted := 0
	for _, c := range ranked {
		if slices.ContainsFunc(c.uses, func(u division) bool { return touched[u.node] }) {
			continue
		}
		div := c.expr
		if c.src >= 0 {
			div, _ = exprs[c.src].DivideByCube(c.coK)
		}
		fanins, cover := divisorCover(div)
		net := nw.AddNode(nw.FreshName(fmt.Sprintf("ex%d", serial+extracted)), fanins, cover)
		for _, u := range c.uses {
			rewriteWithDivisorCore(nw, internals[u.node], u.q, u.r, net)
			touched[u.node] = true
		}
		extracted++
	}
	nw.RemoveDangling()
	return extracted
}
