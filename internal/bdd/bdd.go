// Package bdd implements reduced ordered binary decision diagrams with an
// ITE-based apply engine. The simulator uses it to prove — not sample —
// functional equivalence between a Boolean network and its synthesized
// threshold network: both are compiled into one manager under a shared
// variable order and compared for structural identity.
//
// The manager keeps no Go map on the apply path, after Brace, Rudell and
// Bryant's package (DAC 1990). Nodes live in one slice and are numbered
// in creation order; the unique table is a power-of-two array of chain
// heads with a next link kept beside each node, and the ITE cache is a
// direct-mapped array a quarter that length that forgets on collision. A
// forgotten ITE is recomputed, and since every node it reaches already
// exists the recomputation creates none: node numbering, and the call
// at which ErrNodeLimit trips, do not depend on what the cache kept.
// Threshold compiles a gate without a closure or a per-gate map, in
// scratch space the manager reuses across gates.
package bdd

import (
	"errors"
	"fmt"
)

// Ref is a node reference within a Manager. The constants False and True
// refer to the terminal nodes.
type Ref int32

// Terminal nodes, valid in every manager.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level  int32 // variable level (smaller = closer to the root)
	lo, hi Ref
}

// iteEntry is one ITE cache slot. A zero slot never matches a lookup,
// since ITE answers f = False before it reaches the cache.
type iteEntry struct{ f, g, h, r Ref }

// ErrNodeLimit is returned when an operation would grow the manager past
// its configured node budget.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

// Manager owns the node store, unique table, ITE cache and threshold
// scratch. It is not safe for concurrent use.
type Manager struct {
	nodes    []node
	next     []Ref      // next[r] follows node r in its unique-table chain; 0 ends it
	buckets  []Ref      // unique-table chain heads; 0 (a terminal, never chained) is empty
	cache    []iteEntry // direct-mapped ITE cache, a quarter as long as buckets
	numVars  int
	maxNodes int
	thr      thresholdScratch
}

// DefaultMaxNodes bounds manager growth; equivalence checking falls back
// to simulation when a cone exceeds it.
const DefaultMaxNodes = 2_000_000

// initialBuckets is the unique table's starting length. The table and
// the ITE cache double whenever the node count passes the bucket count.
const initialBuckets = 256

// bucketsPerCacheSlot sizes the ITE cache against the unique table. A
// quarter-length cache proved as fast as a full-length one on the golden
// corpus's proofs, in less memory.
const bucketsPerCacheSlot = 4

// New creates a manager with numVars variables (levels 0..numVars-1) and
// the given node budget (0 selects DefaultMaxNodes).
func New(numVars, maxNodes int) *Manager {
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	m := &Manager{
		nodes:    make([]node, 0, initialBuckets+1),
		next:     make([]Ref, 0, initialBuckets+1),
		buckets:  make([]Ref, initialBuckets),
		cache:    make([]iteEntry, initialBuckets/bucketsPerCacheSlot),
		numVars:  numVars,
		maxNodes: maxNodes,
	}
	// Terminals occupy slots 0 and 1 with an out-of-range level.
	m.nodes = append(m.nodes,
		node{level: int32(numVars), lo: False, hi: False},
		node{level: int32(numVars), lo: True, hi: True},
	)
	m.next = append(m.next, 0, 0)
	return m
}

// Size returns the number of live nodes including terminals.
func (m *Manager) Size() int { return len(m.nodes) }

// Var returns the BDD of variable i.
func (m *Manager) Var(i int) (Ref, error) {
	if i < 0 || i >= m.numVars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", i, m.numVars)
	}
	return m.mk(int32(i), False, True)
}

// hash3 mixes three 32-bit keys; callers mask the result to a table.
func hash3(a, b, c int32) uint32 {
	h := uint64(uint32(a))*0x9e3779b97f4a7c15 ^
		uint64(uint32(b))*0xc2b2ae3d27d4eb4f ^
		uint64(uint32(c))*0x165667b19e3779f9
	return uint32(h ^ h>>32)
}

// mk returns the canonical node (level, lo, hi), applying the reduction
// rules.
func (m *Manager) mk(level int32, lo, hi Ref) (Ref, error) {
	if lo == hi {
		return lo, nil
	}
	b := hash3(level, int32(lo), int32(hi)) & uint32(len(m.buckets)-1)
	for r := m.buckets[b]; r != 0; r = m.next[r] {
		if n := m.nodes[r]; n.level == level && n.lo == lo && n.hi == hi {
			return r, nil
		}
	}
	if len(m.nodes) >= m.maxNodes {
		return False, ErrNodeLimit
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	m.next = append(m.next, m.buckets[b])
	m.buckets[b] = r
	if len(m.nodes) > len(m.buckets) {
		m.grow()
	}
	return r, nil
}

// grow doubles the unique table and the ITE cache. Every node is
// rechained; each cached ITE moves to its new slot, the later of two that
// collide there winning.
func (m *Manager) grow() {
	size := 2 * len(m.buckets)
	mask := uint32(size - 1)
	// Reserve room for the nodes that fill the new table, so the node
	// slices grow by doubling with the table.
	m.nodes = append(make([]node, 0, size+1), m.nodes...)
	m.next = append(make([]Ref, 0, size+1), m.next...)
	m.buckets = make([]Ref, size)
	for r := 2; r < len(m.nodes); r++ {
		n := m.nodes[r]
		b := hash3(n.level, int32(n.lo), int32(n.hi)) & mask
		m.next[r] = m.buckets[b]
		m.buckets[b] = Ref(r)
	}
	old := m.cache
	m.cache = make([]iteEntry, size/bucketsPerCacheSlot)
	cmask := uint32(len(m.cache) - 1)
	for _, e := range old {
		if e.f != False {
			m.cache[hash3(int32(e.f), int32(e.g), int32(e.h))&cmask] = e
		}
	}
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// ITE computes if-then-else(f, g, h), the universal binary operator.
func (m *Manager) ITE(f, g, h Ref) (Ref, error) {
	// Terminal cases.
	switch {
	case f == True:
		return g, nil
	case f == False:
		return h, nil
	case g == h:
		return g, nil
	case g == True && h == False:
		return f, nil
	}
	key := hash3(int32(f), int32(g), int32(h))
	if e := m.cache[key&uint32(len(m.cache)-1)]; e.f == f && e.g == g && e.h == h {
		return e.r, nil
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo, err := m.ITE(f0, g0, h0)
	if err != nil {
		return False, err
	}
	hi, err := m.ITE(f1, g1, h1)
	if err != nil {
		return False, err
	}
	r, err := m.mk(top, lo, hi)
	if err != nil {
		return False, err
	}
	// The recursion may have grown the cache, so mask again.
	m.cache[key&uint32(len(m.cache)-1)] = iteEntry{f, g, h, r}
	return r, nil
}

func (m *Manager) cofactors(r Ref, level int32) (lo, hi Ref) {
	n := m.nodes[r]
	if n.level != level {
		return r, r
	}
	return n.lo, n.hi
}

// Not returns the complement.
func (m *Manager) Not(f Ref) (Ref, error) { return m.ITE(f, False, True) }

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) (Ref, error) { return m.ITE(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) (Ref, error) { return m.ITE(f, True, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) (Ref, error) {
	ng, err := m.Not(g)
	if err != nil {
		return False, err
	}
	return m.ITE(f, ng, g)
}

// Eval evaluates the function on a complete assignment (indexed by level).
func (m *Manager) Eval(f Ref, assign []bool) bool {
	for f != True && f != False {
		n := m.nodes[f]
		if assign[n.level] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// AnySat returns one satisfying assignment, or nil for the constant-0
// function. Unconstrained variables are reported as false.
func (m *Manager) AnySat(f Ref) []bool {
	if f == False {
		return nil
	}
	assign := make([]bool, m.numVars)
	for f != True {
		n := m.nodes[f]
		if n.lo != False {
			f = n.lo
		} else {
			assign[n.level] = true
			f = n.hi
		}
	}
	return assign
}

// thresholdScratch holds one Threshold call's gate and its (i, rem) memo.
// The slices keep their capacity from gate to gate.
type thresholdScratch struct {
	inputs  []Ref
	weights []int
	// minRest[i] and maxRest[i] are the sums of the negative and of the
	// positive weights from input i on.
	minRest, maxRest []int
	// memo is open-addressed with linear probing, a power of two long
	// and at most half full. A slot belongs to the current gate only when
	// its stamp equals stamp, so a new gate clears it by bumping stamp.
	memo  []memoEntry
	used  int
	stamp uint32
}

type memoEntry struct {
	rem   int
	i     int32
	stamp uint32
	r     Ref
}

// initialMemo is the threshold memo's starting length.
const initialMemo = 64

// Threshold builds the BDD of a linear threshold gate over the given
// input functions: output 1 iff Σ weights[i]·inputs[i] ≥ t. Inputs are
// processed in order with running-sum bounding, which keeps comparator-
// and adder-style gates compact. The memo holds only the (input, remaining
// threshold) pairs the gate reaches, so its size does not grow with the
// weights' magnitude.
func (m *Manager) Threshold(inputs []Ref, weights []int, t int) (Ref, error) {
	if len(inputs) != len(weights) {
		return False, fmt.Errorf("bdd: %d inputs but %d weights", len(inputs), len(weights))
	}
	s := &m.thr
	n := len(weights)
	s.inputs, s.weights = inputs, weights
	s.minRest = append(s.minRest[:0], make([]int, n+1)...)
	s.maxRest = append(s.maxRest[:0], make([]int, n+1)...)
	for i := n - 1; i >= 0; i-- {
		s.maxRest[i] = s.maxRest[i+1]
		s.minRest[i] = s.minRest[i+1]
		if weights[i] > 0 {
			s.maxRest[i] += weights[i]
		} else {
			s.minRest[i] += weights[i]
		}
	}
	if s.memo == nil {
		s.memo = make([]memoEntry, initialMemo)
	}
	s.used = 0
	s.stamp++
	if s.stamp == 0 { // wrapped: old stamps could match again
		clear(s.memo)
		s.stamp = 1
	}
	r, err := m.threshold(0, t)
	s.inputs, s.weights = nil, nil
	return r, err
}

// threshold is Threshold's recursion: the BDD of Σ_{j≥i} w_j·x_j ≥ rem.
func (m *Manager) threshold(i, rem int) (Ref, error) {
	s := &m.thr
	if s.minRest[i] >= rem {
		return True, nil
	}
	if s.maxRest[i] < rem {
		return False, nil
	}
	if r, ok := s.lookup(i, rem); ok {
		return r, nil
	}
	hi, err := m.threshold(i+1, rem-s.weights[i])
	if err != nil {
		return False, err
	}
	lo, err := m.threshold(i+1, rem)
	if err != nil {
		return False, err
	}
	r, err := m.ITE(s.inputs[i], hi, lo)
	if err != nil {
		return False, err
	}
	s.insert(i, rem, r)
	return r, nil
}

// memoHash hashes an (input, remainder) pair, the 64-bit remainder as
// two halves.
func memoHash(i int32, rem int) uint32 { return hash3(i, int32(rem), int32(rem>>32)) }

func (s *thresholdScratch) lookup(i, rem int) (Ref, bool) {
	mask := uint32(len(s.memo) - 1)
	for b := memoHash(int32(i), rem) & mask; s.memo[b].stamp == s.stamp; b = (b + 1) & mask {
		if e := s.memo[b]; e.i == int32(i) && e.rem == rem {
			return e.r, true
		}
	}
	return False, false
}

// insert records a pair lookup has just missed.
func (s *thresholdScratch) insert(i, rem int, r Ref) {
	if 2*(s.used+1) > len(s.memo) {
		old := s.memo
		s.memo = make([]memoEntry, 2*len(old))
		for _, e := range old {
			if e.stamp == s.stamp {
				s.place(e)
			}
		}
	}
	s.place(memoEntry{rem: rem, i: int32(i), stamp: s.stamp, r: r})
	s.used++
}

func (s *thresholdScratch) place(e memoEntry) {
	mask := uint32(len(s.memo) - 1)
	b := memoHash(e.i, e.rem) & mask
	for s.memo[b].stamp == s.stamp {
		b = (b + 1) & mask
	}
	s.memo[b] = e
}
