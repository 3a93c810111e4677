package bdd

import (
	"math/rand"
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
