package opt

import (
	"fmt"
	"sort"

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

// divisorCover converts a global-space expression into a cover over an
// explicit fanin list.
func (s *signalSpaceCore) divisorCover(e algebra.Expr) ([]netcore.Net, logic.Cover) {
	vars := e.Vars()
	pos := make(map[int]int, len(vars))
	fanins := make([]netcore.Net, len(vars))
	for i, v := range vars {
		pos[v] = i
		fanins[i] = s.nets[v]
	}
	cover := logic.NewCover(len(vars))
	for _, cube := range e {
		c := logic.NewCube(len(vars))
		for _, l := range cube {
			c[pos[l.Var()]] = l.Phase()
		}
		cover.AddCube(c)
	}
	return fanins, cover
}

type candidate struct {
	expr  algebra.Expr
	lits  litSet
	value int
	key   string
}

func extractRound(nw *netcore.Network, serial int) int {
	space := newSignalSpaceCore(nw)
	internals := nw.InternalNets()
	exprs := make([]algebra.Expr, len(internals))
	lits := make([]litSet, len(internals))
	for i, n := range internals {
		exprs[i] = space.exprOf(n)
		lits[i] = litsOf(exprs[i])
	}

	// Candidate kernels, deduplicated by structure.
	cands := make(map[string]*candidate)
	for _, e := range exprs {
		if len(e) < 2 || len(e) > extractMaxCubesPerNode {
			continue
		}
		for _, k := range algebra.Kernels(e) {
			if len(k.Expr) < 2 || len(k.Expr) > extractMaxKernelCubes {
				continue
			}
			key := kernelKey(k.Expr)
			if _, ok := cands[key]; !ok {
				cands[key] = &candidate{expr: k.Expr, lits: litsOf(k.Expr), key: key}
			}
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
		if cnt < 3 {
			continue
		}
		e := algebra.Expr{algebra.Cube{pair[0], pair[1]}}
		key := kernelKey(e)
		if _, ok := cands[key]; !ok {
			cands[key] = &candidate{expr: e, lits: litsOf(e), key: key}
		}
	}
	if len(cands) == 0 {
		return 0
	}

	// Value each candidate by total literal savings over all nodes.
	keys := make([]string, 0, len(cands))
	for k := range cands {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	divide := func(e algebra.Expr, d algebra.Expr) (algebra.Expr, algebra.Expr) {
		if len(d) == 1 {
			return e.DivideByCube(d[0])
		}
		return algebra.WeakDiv(e, d)
	}
	var ranked []*candidate
	for _, key := range keys {
		c := cands[key]
		value := -c.expr.Literals()
		for i, e := range exprs {
			if !c.lits.subsetOf(lits[i]) {
				continue
			}
			q, r := divide(e, c.expr)
			if len(q) == 0 {
				continue
			}
			after := q.Literals() + len(q) + r.Literals()
			if save := e.Literals() - after; save > 0 {
				value += save
			}
		}
		if value >= 1 {
			c.value = value
			ranked = append(ranked, c)
		}
	}
	if len(ranked) == 0 {
		return 0
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].value > ranked[j].value })

	// Extract candidates best-first; a node rewritten this round is stale,
	// so later candidates touching it are deferred to the next round.
	touched := make([]bool, len(internals))
	extracted := 0
	for _, c := range ranked {
		var affected []int
		var quotients []algebra.Expr
		var remainders []algebra.Expr
		stale := false
		for i, e := range exprs {
			if !c.lits.subsetOf(lits[i]) {
				continue
			}
			q, r := divide(e, c.expr)
			if len(q) == 0 {
				continue
			}
			after := q.Literals() + len(q) + r.Literals()
			if e.Literals()-after <= 0 {
				continue
			}
			if touched[i] {
				stale = true
				break
			}
			affected = append(affected, i)
			quotients = append(quotients, q)
			remainders = append(remainders, r)
		}
		if stale || len(affected) == 0 {
			continue
		}
		fanins, cover := space.divisorCover(c.expr)
		div := nw.AddNode(nw.FreshName(fmt.Sprintf("ex%d", serial+extracted)), fanins, cover)
		for k, i := range affected {
			space.rewriteWithDivisorCore(internals[i], quotients[k], remainders[k], div)
			touched[i] = true
		}
		extracted++
	}
	nw.RemoveDangling()
	return extracted
}

func kernelKey(e algebra.Expr) string {
	keys := make([]string, len(e))
	for i, c := range e {
		b := make([]byte, 0, len(c)*3)
		for _, l := range c {
			b = append(b, byte(l>>16), byte(l>>8), byte(l))
		}
		keys[i] = string(b)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + "\xff"
	}
	return out
}
