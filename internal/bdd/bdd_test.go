package bdd

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tels/internal/logic"
)

func mustVar(t *testing.T, m *Manager, i int) Ref {
	t.Helper()
	v, err := m.Var(i)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestTerminalsAndVars(t *testing.T) {
	m := New(3, 0)
	x := mustVar(t, m, 0)
	if !m.Eval(x, []bool{true, false, false}) || m.Eval(x, []bool{false, true, true}) {
		t.Fatal("Var(0) evaluates wrong")
	}
	if m.Eval(False, []bool{true, true, true}) || !m.Eval(True, []bool{false, false, false}) {
		t.Fatal("terminals evaluate wrong")
	}
	if _, err := m.Var(3); err == nil {
		t.Fatal("out-of-range variable accepted")
	}
}

func TestCanonicity(t *testing.T) {
	m := New(2, 0)
	a, b := mustVar(t, m, 0), mustVar(t, m, 1)
	// a∧b built two ways must be the same node.
	ab1, err := m.And(a, b)
	if err != nil {
		t.Fatal(err)
	}
	nb, _ := m.Not(b)
	na, _ := m.Not(a)
	or, _ := m.Or(na, nb)
	ab2, err := m.Not(or) // ¬(¬a ∨ ¬b)
	if err != nil {
		t.Fatal(err)
	}
	if ab1 != ab2 {
		t.Fatalf("canonicity violated: %d vs %d", ab1, ab2)
	}
}

func TestOpsAgainstTruthTables(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		n := 2 + rng.Intn(4)
		m := New(n, 0)
		// Build two random functions as OR of random cubes, tracking a
		// reference truth table.
		build := func() (Ref, []bool) {
			f := False
			tt := make([]bool, 1<<uint(n))
			for c := 0; c < 1+rng.Intn(3); c++ {
				cube := True
				mask, val := 0, 0
				for i := 0; i < n; i++ {
					switch rng.Intn(3) {
					case 0:
						v := mustVar(t, m, i)
						cube, _ = m.And(cube, v)
						mask |= 1 << uint(i)
						val |= 1 << uint(i)
					case 1:
						v := mustVar(t, m, i)
						nv, _ := m.Not(v)
						cube, _ = m.And(cube, nv)
						mask |= 1 << uint(i)
					}
				}
				f, _ = m.Or(f, cube)
				for x := 0; x < len(tt); x++ {
					if x&mask == val {
						tt[x] = true
					}
				}
			}
			return f, tt
		}
		f, ft := build()
		g, gt := build()
		and, _ := m.And(f, g)
		or, _ := m.Or(f, g)
		xor, _ := m.Xor(f, g)
		nf, _ := m.Not(f)
		assign := make([]bool, n)
		for x := 0; x < 1<<uint(n); x++ {
			for i := 0; i < n; i++ {
				assign[i] = x&(1<<uint(i)) != 0
			}
			if m.Eval(f, assign) != ft[x] || m.Eval(g, assign) != gt[x] {
				t.Fatalf("iter %d: base functions wrong", iter)
			}
			if m.Eval(and, assign) != (ft[x] && gt[x]) {
				t.Fatalf("iter %d: and wrong at %d", iter, x)
			}
			if m.Eval(or, assign) != (ft[x] || gt[x]) {
				t.Fatalf("iter %d: or wrong at %d", iter, x)
			}
			if m.Eval(xor, assign) != (ft[x] != gt[x]) {
				t.Fatalf("iter %d: xor wrong at %d", iter, x)
			}
			if m.Eval(nf, assign) == ft[x] {
				t.Fatalf("iter %d: not wrong at %d", iter, x)
			}
		}
	}
}

func TestAnySat(t *testing.T) {
	m := New(3, 0)
	a, c := mustVar(t, m, 0), mustVar(t, m, 2)
	na, _ := m.Not(a)
	f, _ := m.And(na, c) // !x0 * x2
	assign := m.AnySat(f)
	if assign == nil || !m.Eval(f, assign) {
		t.Fatalf("AnySat returned non-witness %v", assign)
	}
	if m.AnySat(False) != nil {
		t.Fatal("AnySat(0) should be nil")
	}
}

func TestThresholdGateBDD(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(6)
		m := New(n, 0)
		inputs := make([]Ref, n)
		for i := range inputs {
			inputs[i] = mustVar(t, m, i)
		}
		weights := make([]int, n)
		for i := range weights {
			weights[i] = rng.Intn(9) - 4
		}
		thr := rng.Intn(7) - 3
		f, err := m.Threshold(inputs, weights, thr)
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]bool, n)
		for x := 0; x < 1<<uint(n); x++ {
			sum := 0
			for i := 0; i < n; i++ {
				assign[i] = x&(1<<uint(i)) != 0
				if assign[i] {
					sum += weights[i]
				}
			}
			if m.Eval(f, assign) != (sum >= thr) {
				t.Fatalf("iter %d: threshold BDD wrong at %d (w=%v T=%d)", iter, x, weights, thr)
			}
		}
	}
}

func TestThresholdMismatchedArity(t *testing.T) {
	m := New(2, 0)
	if _, err := m.Threshold([]Ref{True}, []int{1, 2}, 1); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestNodeLimit(t *testing.T) {
	// A 16-bit comparator-equality with bad ordering needs exponential
	// nodes; a tiny budget must trip ErrNodeLimit rather than hang.
	n := 32
	m := New(n, 200)
	eq := True
	var err error
	for i := 0; i < 16; i++ {
		a := mustVar(t, m, i)    // a bits first,
		b := mustVar(t, m, 16+i) // b bits last: worst-case order
		x, e := m.Xor(a, b)
		if e != nil {
			err = e
			break
		}
		nx, e := m.Not(x)
		if e != nil {
			err = e
			break
		}
		eq, e = m.And(eq, nx)
		if e != nil {
			err = e
			break
		}
	}
	if err != ErrNodeLimit {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
}

func TestCoverBDD(t *testing.T) {
	m := New(3, 0)
	fanins := make([]Ref, 3)
	for i := range fanins {
		fanins[i] = mustVar(t, m, i)
	}
	cover := logic.MustCover("1-0", "01-")
	var phases []logic.Phase
	for _, c := range cover.Cubes {
		phases = append(phases, c...)
	}
	f, err := coverBDD(m, phases, len(cover.Cubes), 3, fanins)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]bool, 3)
	for x := 0; x < 8; x++ {
		for i := 0; i < 3; i++ {
			assign[i] = x&(1<<uint(i)) != 0
		}
		if m.Eval(f, assign) != cover.Eval(assign) {
			t.Fatalf("coverBDD wrong at %d", x)
		}
	}
}

// mapManager is the map-based kernel the flat Manager replaced: a Go map
// as the unique table, a never-forgetting map as the ITE cache, and a
// closure over a per-call map in Threshold. It is the oracle the Manager
// must match Ref for Ref and node for node.
type mapManager struct {
	nodes    []node
	unique   map[node]Ref
	iteCache map[[3]Ref]Ref
	numVars  int
	maxNodes int
}

func newMapManager(numVars, maxNodes int) *mapManager {
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	return &mapManager{
		nodes: []node{
			{level: int32(numVars), lo: False, hi: False},
			{level: int32(numVars), lo: True, hi: True},
		},
		unique:   make(map[node]Ref),
		iteCache: make(map[[3]Ref]Ref),
		numVars:  numVars,
		maxNodes: maxNodes,
	}
}

func (m *mapManager) Var(i int) (Ref, error) {
	if i < 0 || i >= m.numVars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", i, m.numVars)
	}
	return m.mk(int32(i), False, True)
}

func (m *mapManager) mk(level int32, lo, hi Ref) (Ref, error) {
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

func (m *mapManager) cofactors(r Ref, level int32) (lo, hi Ref) {
	n := m.nodes[r]
	if n.level != level {
		return r, r
	}
	return n.lo, n.hi
}

func (m *mapManager) ITE(f, g, h Ref) (Ref, error) {
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
	key := [3]Ref{f, g, h}
	if r, ok := m.iteCache[key]; ok {
		return r, nil
	}
	top := min(m.nodes[f].level, m.nodes[g].level, m.nodes[h].level)
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

func (m *mapManager) Not(f Ref) (Ref, error)    { return m.ITE(f, False, True) }
func (m *mapManager) And(f, g Ref) (Ref, error) { return m.ITE(f, g, False) }
func (m *mapManager) Or(f, g Ref) (Ref, error)  { return m.ITE(f, True, g) }

func (m *mapManager) Xor(f, g Ref) (Ref, error) {
	ng, err := m.Not(g)
	if err != nil {
		return False, err
	}
	return m.ITE(f, ng, g)
}

func (m *mapManager) Threshold(inputs []Ref, weights []int, t int) (Ref, error) {
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
	memo := make(map[[2]int]Ref)
	var rec func(i, rem int) (Ref, error)
	rec = func(i, rem int) (Ref, error) {
		if minRest[i] >= rem {
			return True, nil
		}
		if maxRest[i] < rem {
			return False, nil
		}
		if r, ok := memo[[2]int{i, rem}]; ok {
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
		memo[[2]int{i, rem}] = r
		return r, nil
	}
	return rec(0, t)
}

// TestManagerMatchesMapOracle runs random operation sequences on the
// Manager and on the map-based oracle. Every step must return the same
// Ref, leave the same node slice and trip ErrNodeLimit at the same call.
// Odd sequences wipe the Manager's ITE cache after every step, so each
// operation recomputes what the oracle remembers.
func TestManagerMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	limitHits, grown := 0, 0
	for seq := 0; seq < 600; seq++ {
		numVars := 1 + rng.Intn(10)
		budget := 0
		if seq%3 == 0 {
			budget = 50 + rng.Intn(451)
		}
		wipe := seq%2 == 1
		m, o := New(numVars, budget), newMapManager(numVars, budget)
		pool := []Ref{False, True}
		// Half the operands are recent results, so functions compound
		// and the larger sequences outgrow the first table.
		pick := func() Ref {
			if rng.Intn(2) == 0 {
				return pool[len(pool)-1-rng.Intn(min(len(pool), 4))]
			}
			return pool[rng.Intn(len(pool))]
		}
		for step := 0; step < 250; step++ {
			var op string
			var got, want Ref
			var gotErr, wantErr error
			switch rng.Intn(7) {
			case 0:
				i := rng.Intn(numVars)
				op = fmt.Sprintf("Var(%d)", i)
				got, gotErr = m.Var(i)
				want, wantErr = o.Var(i)
			case 1:
				f, g, h := pick(), pick(), pick()
				op = fmt.Sprintf("ITE(%d, %d, %d)", f, g, h)
				got, gotErr = m.ITE(f, g, h)
				want, wantErr = o.ITE(f, g, h)
			case 2:
				f, g := pick(), pick()
				op = fmt.Sprintf("And(%d, %d)", f, g)
				got, gotErr = m.And(f, g)
				want, wantErr = o.And(f, g)
			case 3:
				f, g := pick(), pick()
				op = fmt.Sprintf("Or(%d, %d)", f, g)
				got, gotErr = m.Or(f, g)
				want, wantErr = o.Or(f, g)
			case 4:
				f, g := pick(), pick()
				op = fmt.Sprintf("Xor(%d, %d)", f, g)
				got, gotErr = m.Xor(f, g)
				want, wantErr = o.Xor(f, g)
			case 5:
				f := pick()
				op = fmt.Sprintf("Not(%d)", f)
				got, gotErr = m.Not(f)
				want, wantErr = o.Not(f)
			case 6:
				k := rng.Intn(7)
				inputs, weights := make([]Ref, k), make([]int, k)
				for i := range inputs {
					inputs[i] = pick()
					weights[i] = rng.Intn(9) - 4
					if rng.Intn(8) == 0 {
						weights[i] *= 1_000_000_000
					}
				}
				thr := rng.Intn(9) - 4
				op = fmt.Sprintf("Threshold(%v, %v, %d)", inputs, weights, thr)
				got, gotErr = m.Threshold(inputs, weights, thr)
				want, wantErr = o.Threshold(inputs, weights, thr)
			}
			at := fmt.Sprintf("sequence %d (%d vars, budget %d) step %d %s", seq, numVars, budget, step, op)
			if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrNodeLimit) != errors.Is(wantErr, ErrNodeLimit) {
				t.Fatalf("%s: error %v, oracle %v", at, gotErr, wantErr)
			}
			if got != want {
				t.Fatalf("%s: Ref %d, oracle %d", at, got, want)
			}
			if !slices.Equal(m.nodes, o.nodes) {
				t.Fatalf("%s: node slices differ (%d vs %d nodes)", at, len(m.nodes), len(o.nodes))
			}
			if gotErr != nil {
				limitHits++
			} else {
				pool = append(pool, got)
			}
			if wipe {
				clear(m.cache)
			}
		}
		if len(m.nodes) > initialBuckets {
			grown++
		}
	}
	if limitHits == 0 || grown == 0 {
		t.Fatalf("vacuous: %d node-limit errors, %d sequences outgrew the first table", limitHits, grown)
	}
}
