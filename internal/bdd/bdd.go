// Package bdd implements reduced ordered binary decision diagrams with an
// ITE-based apply engine. The simulator uses it to prove — not sample —
// functional equivalence between a Boolean network and its synthesized
// threshold network: both are compiled into one manager under a shared
// variable order and compared for structural identity.
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

// ErrNodeLimit is returned when an operation would grow the manager past
// its configured node budget.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

// Manager owns the shared node store, unique table, and operation cache.
type Manager struct {
	nodes    []node
	unique   map[node]Ref
	iteCache map[iteKey]Ref
	numVars  int
	maxNodes int
}

type iteKey struct{ f, g, h Ref }

// DefaultMaxNodes bounds manager growth; equivalence checking falls back
// to simulation when a cone exceeds it.
const DefaultMaxNodes = 2_000_000

// New creates a manager with numVars variables (levels 0..numVars-1) and
// the given node budget (0 selects DefaultMaxNodes).
func New(numVars, maxNodes int) *Manager {
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	m := &Manager{
		unique:   make(map[node]Ref),
		iteCache: make(map[iteKey]Ref),
		numVars:  numVars,
		maxNodes: maxNodes,
	}
	// Terminals occupy slots 0 and 1 with an out-of-range level.
	m.nodes = append(m.nodes,
		node{level: int32(numVars), lo: False, hi: False},
		node{level: int32(numVars), lo: True, hi: True},
	)
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

// mk returns the canonical node (level, lo, hi), applying the reduction
// rules.
func (m *Manager) mk(level int32, lo, hi Ref) (Ref, error) {
	if lo == hi {
		return lo, nil
	}
	key := node{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[key]; ok {
		return r, nil
	}
	if len(m.nodes) >= m.maxNodes {
		return False, ErrNodeLimit
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, key)
	m.unique[key] = r
	return r, nil
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
	key := iteKey{f, g, h}
	if r, ok := m.iteCache[key]; ok {
		return r, nil
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
	m.iteCache[key] = r
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

// Threshold builds the BDD of a linear threshold gate over the given
// input functions: output 1 iff Σ weights[i]·inputs[i] ≥ t. Inputs are
// processed in order with running-sum bounding, which keeps comparator-
// and adder-style gates compact.
func (m *Manager) Threshold(inputs []Ref, weights []int, t int) (Ref, error) {
	if len(inputs) != len(weights) {
		return False, fmt.Errorf("bdd: %d inputs but %d weights", len(inputs), len(weights))
	}
	// Suffix sums of positive and negative weights bound the reachable
	// totals, terminating recursion early.
	n := len(weights)
	maxRest := make([]int, n+1)
	minRest := make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		maxRest[i] = maxRest[i+1]
		minRest[i] = minRest[i+1]
		if weights[i] > 0 {
			maxRest[i] += weights[i]
		} else {
			minRest[i] += weights[i]
		}
	}
	type key struct {
		i   int
		rem int
	}
	memo := make(map[key]Ref)
	var rec func(i, rem int) (Ref, error)
	rec = func(i, rem int) (Ref, error) {
		if minRest[i] >= rem {
			return True, nil
		}
		if maxRest[i] < rem {
			return False, nil
		}
		k := key{i, rem}
		if r, ok := memo[k]; ok {
			return r, nil
		}
		hi, err := rec(i+1, rem-weights[i])
		if err != nil {
			return False, err
		}
		lo, err := rec(i+1, rem)
		if err != nil {
			return False, err
		}
		r, err := m.ITE(inputs[i], hi, lo)
		if err != nil {
			return False, err
		}
		memo[k] = r
		return r, nil
	}
	return rec(0, t)
}
