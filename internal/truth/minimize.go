package truth

import (
	"container/heap"
	"math/bits"
	"slices"

	"tels/internal/logic"
)

// decodeKeys returns the cubes of prime keys over n variables, in key
// order, on one shared backing; nil for no keys.
func decodeKeys(n int, keys []uint64) []logic.Cube {
	if len(keys) == 0 {
		return nil
	}
	backing := make([]logic.Phase, len(keys)*n)
	out := make([]logic.Cube, len(keys))
	for i, k := range keys {
		c := logic.Cube(backing[i*n : (i+1)*n : (i+1)*n])
		decodeKey(k, c)
		out[i] = c
	}
	return out
}

// A prime key packs a cube two bits per variable, variable 0 most
// significant, with '-' < '0' < '1' as 0 < 1 < 2, so ascending keys are
// ascending Cube.String order. 2·MaxVars bits fit in a uint64.
func primeKey(n int, values, dcs uint32) uint64 {
	var k uint64
	for i := 0; i < n; i++ {
		k <<= 2
		if dcs>>uint(i)&1 == 0 {
			k |= 1 + uint64(values>>uint(i)&1)
		}
	}
	return k
}

// keyCube returns the minterm values and don't-care mask of a prime key.
func keyCube(n int, k uint64) (values, dcs uint32) {
	for i := n - 1; i >= 0; i, k = i-1, k>>2 {
		switch k & 3 {
		case 0:
			dcs |= 1 << uint(i)
		case 2:
			values |= 1 << uint(i)
		}
	}
	return values, dcs
}

// decodeKey writes the cube of a prime key into c (len N).
func decodeKey(k uint64, c logic.Cube) {
	for i := len(c) - 1; i >= 0; i, k = i-1, k>>2 {
		c[i] = [3]logic.Phase{logic.DC, logic.Neg, logic.Pos}[k&3]
	}
}

// primeKeys returns the prime keys of the function in ascending order.
//
// The primes are generated on the packed table words. For each don't-care
// mask D, S[D] is the bitset of positions m (the D bits of m clear) whose
// cube (m, D) is an implicant; S[∅] is the table itself. Two cubes of S[D]
// merge across a free variable j exactly when m and its j-partner m^2^j
// are both in S[D], so S[D∪{j}] is S[D] & partner_j(S[D]) on the positions
// with bit j clear, and a cube is prime when no free j merges it.
// partner_j is an in-word shift by 2^j for j < 6 and a word swap for
// j ≥ 6. Each D is visited once, depth first from D minus its highest
// variable, and only the nonzero words of S[D] are touched, so a sparse
// table costs in proportion to its ON-set rather than to 2^N.
func (t *Table) primeKeys() []uint64 {
	g := primeGen{n: t.n}
	g.sets[0] = make([]uint64, len(t.bits))
	copy(g.sets[0], t.bits)
	g.sets[0][len(t.bits)-1] &= t.mask()
	for w, x := range g.sets[0] {
		if x != 0 {
			g.idx[0] = append(g.idx[0], int32(w))
		}
	}
	if len(g.idx[0]) > 0 {
		g.visit(0, 0, -1)
	}
	slices.Sort(g.keys)
	return g.keys
}

// primeGen is the scratch state of one primeKeys call: one bitset and one
// nonzero-word list per depth of the don't-care mask lattice, allocated
// when the search first reaches that depth.
type primeGen struct {
	n    int
	sets [MaxVars + 1][]uint64 // sets[d] is S[D] of the node at depth d = |D|; zero off idx[d]
	idx  [MaxVars + 1][]int32  // idx[d] lists the nonzero words of sets[d], ascending
	keys []uint64
}

// visit emits the primes of S[D], held at depth d, and then visits every
// D∪{j} with j above top, the highest variable of D.
func (g *primeGen) visit(d int, dcs uint32, top int) {
	s, idx := g.sets[d], g.idx[d]
	for _, w := range idx {
		x := s[w]
		var merged uint64
		for j := 0; j < g.n; j++ {
			if dcs>>uint(j)&1 != 0 {
				continue
			}
			if j < 6 {
				k := uint(1) << uint(j)
				y := x & (x >> k) &^ varMasks[j]
				merged |= y | y<<k
			} else {
				merged |= x & s[w^int32(1)<<uint(j-6)]
			}
		}
		for p := x &^ merged; p != 0; p &= p - 1 {
			pos := uint32(w)<<6 | uint32(bits.TrailingZeros64(p))
			g.keys = append(g.keys, primeKey(g.n, pos, dcs))
		}
	}
	if top+1 >= g.n {
		return
	}
	if g.sets[d+1] == nil {
		g.sets[d+1] = make([]uint64, len(s))
	}
	cs := g.sets[d+1]
	for j := top + 1; j < g.n; j++ {
		cidx := g.idx[d+1][:0]
		if j < 6 {
			k := uint(1) << uint(j)
			for _, w := range idx {
				x := s[w]
				if y := x & (x >> k) &^ varMasks[j]; y != 0 {
					cs[w] = y
					cidx = append(cidx, w)
				}
			}
		} else {
			bit := int32(1) << uint(j-6)
			for _, w := range idx {
				if w&bit != 0 {
					continue
				}
				if y := s[w] & s[w|bit]; y != 0 {
					cs[w] = y
					cidx = append(cidx, w)
				}
			}
		}
		g.idx[d+1] = cidx
		if len(cidx) == 0 {
			continue
		}
		g.visit(d+1, dcs|1<<uint(j), j)
		for _, w := range cidx {
			cs[w] = 0
		}
	}
}

// MinimalSOP returns an irredundant prime cover of the function: all
// essential primes plus a greedy selection covering the remaining minterms.
// The result is exact as a cover (equivalent to t) though not guaranteed
// minimum-cardinality.
func (t *Table) MinimalSOP() logic.Cover {
	return t.MinimalSOPWithDC(nil)
}

// MinimalSOPWithDC returns an irredundant prime cover of an incompletely
// specified function: primes are generated over the union of the ON-set
// and the don't-care set dc, but only true ON-set minterms must be
// covered. The returned cover agrees with t wherever dc is 0 and is free
// on the dc minterms — the classical two-level use of satisfiability
// don't-cares. A nil dc behaves like MinimalSOP.
//
// With a nil dc, a unate function takes an exact shortcut: its only
// irredundant prime cover is the set of all its primes, one per extremal
// true point (see unatePrimeKeys), so no covering problem is built. The
// cubes and their order are those of the general route.
//
// Otherwise the covering step works on packed minterm bitsets: each prime
// keeps its words of the ON-set it must cover, essential primes are those
// holding a minterm no other prime covers, and each greedy step takes the
// lowest-index prime with the most uncovered minterms, counted by
// popcount.
func (t *Table) MinimalSOPWithDC(dc *Table) logic.Cover {
	if dc == nil {
		if keys, ok := t.unatePrimeKeys(); ok {
			return logic.Cover{N: t.n, Cubes: decodeKeys(t.n, keys)}
		}
	}
	return t.greedySOP(dc)
}

// greedySOP is MinimalSOPWithDC on any function: all primes of t|dc, the
// essential ones, then greedy picks.
func (t *Table) greedySOP(dc *Table) logic.Cover {
	keys, pc := t.primeCover(dc)
	cover := logic.NewCover(t.n)
	if pc == nil {
		return cover // constant 0, or an ON-set inside the DC set
	}
	pc.greedy()
	for pi, k := range keys {
		if pc.selected[pi] {
			c := logic.NewCube(t.n)
			decodeKey(k, c)
			cover.AddCube(c)
		}
	}
	return cover
}

// unatePrimeKeys returns the prime keys of a unate function in ascending
// order, or false once it meets a binate variable.
//
// Call a variable's value inactive when raising the function's input
// there from it cannot turn the function off: 0 for a positive-unate or
// independent variable, 1 for a negative-unate one. Every prime of a
// unate function is the cube of the active values of one extremal true
// point: a true point whose neighbour towards each variable's inactive
// value is false (a minimal true point, after flipping the negative
// variables). The point alone lies in that prime and in no other, so
// every prime is essential and the greedy cover takes them all.
//
// The extremal points are the table with, for each variable, the points
// whose inactive-side partner is true cleared: one shifted AND-NOT per
// variable, in-word under varMasks[i] for i < 6, over word pairs for
// i ≥ 6.
func (t *Table) unatePrimeKeys() ([]uint64, bool) {
	var pos, neg uint32 // the positive- and negative-unate variables
	for i := 0; i < t.n; i++ {
		switch t.VarUnateness(i) {
		case Binate:
			return nil, false
		case PosUnate:
			pos |= 1 << uint(i)
		case NegUnate:
			neg |= 1 << uint(i)
		}
	}
	valid := t.mask()
	ext := make([]uint64, len(t.bits))
	for w, a := range t.bits {
		ext[w] = a & valid
	}
	for i := 0; i < t.n; i++ {
		up := neg>>uint(i)&1 == 0 // inactive value 0: drop 1-side points
		if i < 6 {
			k, m := uint(1)<<uint(i), varMasks[i]
			for w, a := range t.bits {
				a &= valid
				if up {
					ext[w] &^= a << k & m
				} else {
					ext[w] &^= a >> k &^ m
				}
			}
			continue
		}
		s := 1 << uint(i-6)
		for w := range ext {
			if (w&s != 0) == up {
				ext[w] &^= t.bits[w^s]
			}
		}
	}
	count := 0
	for _, x := range ext {
		count += bits.OnesCount64(x)
	}
	all := uint32(1)<<uint(t.n) - 1
	keys := make([]uint64, 0, count)
	for w, x := range ext {
		for ; x != 0; x &= x - 1 {
			p := uint32(w)<<6 | uint32(bits.TrailingZeros64(x))
			active := p&pos | ^p&neg
			keys = append(keys, primeKey(t.n, p, all&^active))
		}
	}
	slices.Sort(keys)
	return keys, true
}

// primeCover is the covering problem of one MinimalSOPWithDC call. Prime
// pi covers the need minterms bitsets[off[pi]:off[pi+1]] in the words
// words[off[pi]:off[pi+1]].
type primeCover struct {
	off       []int
	words     []int32
	bitsets   []uint64
	covered   []uint64 // need minterms covered by the selected primes
	selected  []bool
	remaining int // need minterms not yet covered
}

// primeCover returns the primes of t|dc in key order and their covering
// problem over the ON-set minterms outside dc, with the essential primes
// already selected. The problem is nil when there is nothing to cover.
func (t *Table) primeCover(dc *Table) ([]uint64, *primeCover) {
	expand := t
	if dc != nil {
		t.checkArity(dc)
		expand = t.Or(dc)
	}
	keys := expand.primeKeys()
	if len(keys) == 0 {
		return keys, nil
	}
	// The ON-set minterms the cover must contain (don't-cares need not be
	// covered); ones and twos mark the minterms covered by at least one
	// and at least two primes.
	nw := len(t.bits)
	scratch := make([]uint64, 4*nw)
	need, ones, twos, covered := scratch[:nw], scratch[nw:2*nw], scratch[2*nw:3*nw], scratch[3*nw:]
	remaining := 0
	for w := range need {
		need[w] = t.bits[w]
		if dc != nil {
			need[w] &^= dc.bits[w]
		}
	}
	need[nw-1] &= t.mask()
	for _, x := range need {
		remaining += bits.OnesCount64(x)
	}
	if remaining == 0 {
		return keys, nil
	}
	pc := &primeCover{
		off:       make([]int, len(keys)+1),
		words:     make([]int32, 0, len(keys)),
		bitsets:   make([]uint64, 0, len(keys)),
		covered:   covered,
		selected:  make([]bool, len(keys)),
		remaining: remaining,
	}
	for pi, k := range keys {
		values, dcs := keyCube(t.n, k)
		low := inWordMask(values, dcs, t.n)
		hiV, hiD := int32(values>>6), int32(dcs>>6)
		for sub := hiD; ; sub = (sub - 1) & hiD {
			w := hiV | sub
			if b := low & need[w]; b != 0 {
				pc.words = append(pc.words, w)
				pc.bitsets = append(pc.bitsets, b)
				twos[w] |= ones[w] & b
				ones[w] |= b
			}
			if sub == 0 {
				break
			}
		}
		pc.off[pi+1] = len(pc.words)
	}
	for pi := range keys {
		for e := pc.off[pi]; e < pc.off[pi+1]; e++ {
			w := pc.words[e]
			if pc.bitsets[e]&ones[w]&^twos[w] != 0 {
				pc.take(pi)
				break
			}
		}
	}
	return keys, pc
}

// gain returns the number of need minterms prime pi would newly cover.
func (pc *primeCover) gain(pi int) int {
	g := 0
	for e := pc.off[pi]; e < pc.off[pi+1]; e++ {
		g += bits.OnesCount64(pc.bitsets[e] &^ pc.covered[pc.words[e]])
	}
	return g
}

// take selects prime pi.
func (pc *primeCover) take(pi int) {
	pc.selected[pi] = true
	for e := pc.off[pi]; e < pc.off[pi+1]; e++ {
		w := pc.words[e]
		pc.remaining -= bits.OnesCount64(pc.bitsets[e] &^ pc.covered[w])
		pc.covered[w] |= pc.bitsets[e]
	}
}

// greedy selects primes until every need minterm is covered, each step
// taking the unselected prime of largest gain, the lowest index among
// ties. Gains only fall as primes are taken, so a max-heap of possibly
// stale gains holds an upper bound for each prime: the top is re-gained,
// and taken once its gain is fresh, since no prime below it can then do
// better or tie at a lower index.
func (pc *primeCover) greedy() {
	h := make(gainHeap, 0, len(pc.selected))
	for pi, sel := range pc.selected {
		if !sel {
			if g := pc.gain(pi); g > 0 {
				h = append(h, gainEntry(g, pi))
			}
		}
	}
	heap.Init(&h)
	for pc.remaining > 0 && len(h) > 0 {
		pi := int(^uint32(h[0]))
		switch g := pc.gain(pi); {
		case g == int(h[0]>>32):
			heap.Pop(&h)
			pc.take(pi)
		case g == 0:
			heap.Pop(&h)
		default:
			h[0] = gainEntry(g, pi)
			heap.Fix(&h, 0)
		}
	}
}

// gainEntry packs a prime's gain above its complemented index, so the
// largest entry is the largest gain at the lowest index.
func gainEntry(gain, pi int) uint64 { return uint64(gain)<<32 | uint64(^uint32(pi)) }

// gainHeap is a max-heap of gain entries.
type gainHeap []uint64

func (h gainHeap) Len() int           { return len(h) }
func (h gainHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h gainHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *gainHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
