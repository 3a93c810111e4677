package opt

import (
	"fmt"
	"sort"

	"tels/internal/algebra"
	"tels/internal/logic"
	"tels/internal/network"
)

// Extraction tuning knobs. Kernel enumeration is exponential in the worst
// case; nodes beyond these bounds contribute only cube divisors.
const (
	extractMaxCubesPerNode = 30  // enumerate kernels only for nodes this small
	extractMaxKernelCubes  = 12  // ignore kernels larger than this
	extractMaxIters        = 400 // global greedy iterations
)

// Extract performs greedy algebraic extraction: it repeatedly finds the
// kernel and cube divisors whose reuse across the network saves the most
// literals, creates new nodes for them, and re-expresses every affected
// node through weak division. This is the factorization step that turns a
// flat network into the algebraically-factored multi-level form TELS
// consumes. Divisors that do not touch the same nodes are extracted in one
// round, so large regular networks converge in a few rounds. It returns
// the number of divisors extracted.
func Extract(nw *network.Network) int {
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

// signalSpace maps network signals to contiguous variable indices so node
// covers from different nodes can be compared in one algebraic space.
type signalSpace struct {
	index map[*network.Node]int
	nodes []*network.Node
}

func newSignalSpace(nw *network.Network) *signalSpace {
	s := &signalSpace{index: make(map[*network.Node]int)}
	for _, n := range nw.Nodes() {
		s.index[n] = len(s.nodes)
		s.nodes = append(s.nodes, n)
	}
	return s
}

// exprOf re-expresses node m's cover in the global space.
func (s *signalSpace) exprOf(m *network.Node) algebra.Expr {
	var e algebra.Expr
	for _, c := range m.Cover.Cubes {
		var cube algebra.Cube
		for i, p := range c {
			if p == logic.DC {
				continue
			}
			cube = append(cube, algebra.MakeLit(s.index[m.Fanins[i]], p))
		}
		sort.Slice(cube, func(a, b int) bool { return cube[a] < cube[b] })
		e = append(e, cube)
	}
	return e
}

// toNodeCover converts a global-space expression into a cover over an
// explicit fanin list.
func (s *signalSpace) toNodeCover(e algebra.Expr) ([]*network.Node, logic.Cover) {
	vars := e.Vars()
	pos := make(map[int]int, len(vars))
	fanins := make([]*network.Node, len(vars))
	for i, v := range vars {
		pos[v] = i
		fanins[i] = s.nodes[v]
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
	value int
	key   string
}

func extractRound(nw *network.Network, serial int) int {
	space := newSignalSpace(nw)
	internals := nw.InternalNodes()
	exprs := make([]algebra.Expr, len(internals))
	litMasks := make([]map[algebra.Lit]bool, len(internals))
	for i, n := range internals {
		exprs[i] = space.exprOf(n)
		mask := make(map[algebra.Lit]bool)
		for _, c := range exprs[i] {
			for _, l := range c {
				mask[l] = true
			}
		}
		litMasks[i] = mask
	}

	// Candidate kernels, deduplicated by structure.
	cands := make(map[string]*candidate)
	for i, e := range exprs {
		if len(e) < 2 || len(e) > extractMaxCubesPerNode {
			continue
		}
		for _, k := range algebra.Kernels(e) {
			if len(k.Expr) < 2 || len(k.Expr) > extractMaxKernelCubes {
				continue
			}
			key := kernelKey(k.Expr)
			if _, ok := cands[key]; !ok {
				cands[key] = &candidate{expr: k.Expr, key: key}
			}
		}
		_ = i
	}
	// Candidate cube divisors: literal pairs occurring in ≥2 cubes.
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
			cands[key] = &candidate{expr: e, key: key}
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
			if !litsSubset(c.expr, litMasks[i]) {
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
			if !litsSubset(c.expr, litMasks[i]) {
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
		fanins, cover := space.toNodeCover(c.expr)
		div := nw.AddNode(nw.FreshName(fmt.Sprintf("ex%d", serial+extracted)), fanins, cover)
		for k, i := range affected {
			rewriteWithDivisor(space, internals[i], quotients[k], remainders[k], div)
			touched[i] = true
		}
		extracted++
	}
	nw.RemoveDangling()
	return extracted
}

func litsSubset(e algebra.Expr, mask map[algebra.Lit]bool) bool {
	for _, c := range e {
		for _, l := range c {
			if !mask[l] {
				return false
			}
		}
	}
	return true
}

// rewriteWithDivisor rewrites node n as q*div + r.
func rewriteWithDivisor(space *signalSpace, n *network.Node, q, r algebra.Expr, div *network.Node) {
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
	fanins := make([]*network.Node, 0, len(vars)+1)
	for i, v := range vars {
		pos[v] = i
		fanins = append(fanins, space.nodes[v])
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
	n.Fanins = fanins
	n.Cover = cover
	mergeDuplicateFanins(n)
}

// mergeDuplicateFanins folds repeated fanin entries into a single column.
// Cubes requiring contradictory phases of the same signal are dropped.
func mergeDuplicateFanins(n *network.Node) bool {
	seen := make(map[*network.Node]int)
	dup := false
	for _, f := range n.Fanins {
		if _, ok := seen[f]; ok {
			dup = true
			break
		}
		seen[f] = 1
	}
	if !dup {
		return false
	}
	var fanins []*network.Node
	index := make(map[*network.Node]int)
	for _, f := range n.Fanins {
		if _, ok := index[f]; !ok {
			index[f] = len(fanins)
			fanins = append(fanins, f)
		}
	}
	out := logic.NewCover(len(fanins))
nextCube:
	for _, c := range n.Cover.Cubes {
		d := logic.NewCube(len(fanins))
		for i, p := range c {
			if p == logic.DC {
				continue
			}
			j := index[n.Fanins[i]]
			if d[j] != logic.DC && d[j] != p {
				continue nextCube // x * !x
			}
			d[j] = p
		}
		out.AddCube(d)
	}
	n.Fanins = fanins
	n.Cover = out
	return true
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
