package network

import (
	"testing"

	"tels/internal/logic"
	"tels/internal/truth"
)

// buildExample constructs the motivational network of the paper's Fig 2(a):
//
//	n4 = x1*x2*x3, inv = !x1, n5 = inv*x4, n3 = n4 + n5,
//	n1 = n3*x5, n2 = x6*x7, f = n1 + n2.
func buildExample() (*Network, *Node) {
	b := NewBuilder("fig2a")
	x := make([]*Node, 8)
	for i := 1; i <= 7; i++ {
		x[i] = b.Input(namef("x", i))
	}
	n4 := b.And("n4", x[1], x[2], x[3])
	inv := b.Not("inv", x[1])
	n5 := b.And("n5", inv, x[4])
	n3 := b.Or("n3", n4, n5)
	n1 := b.And("n1", n3, x[5])
	n2 := b.And("n2", x[6], x[7])
	f := b.Or("f", n1, n2)
	b.Output(f)
	return b.Net, f
}

func namef(p string, i int) string {
	return p + string(rune('0'+i))
}

func TestBuildAndValidate(t *testing.T) {
	nw, _ := buildExample()
	if _, err := nw.TopoSort(); err != nil {
		t.Fatal(err)
	}
	if got := nw.GateCount(); got != 7 {
		t.Fatalf("GateCount = %d, want 7", got)
	}
	if got := len(nw.Inputs); got != 7 {
		t.Fatalf("inputs = %d, want 7", got)
	}
}

func TestEval(t *testing.T) {
	nw, _ := buildExample()
	// f = (x1x2x3 + !x1x4)x5 + x6x7
	eval := func(x1, x2, x3, x4, x5, x6, x7 bool) bool {
		in := map[string]bool{"x1": x1, "x2": x2, "x3": x3, "x4": x4, "x5": x5, "x6": x6, "x7": x7}
		out, err := nw.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	for m := 0; m < 128; m++ {
		v := make([]bool, 8)
		for i := 1; i <= 7; i++ {
			v[i] = m&(1<<uint(i-1)) != 0
		}
		want := (v[1] && v[2] && v[3] || !v[1] && v[4]) && v[5] || v[6] && v[7]
		if got := eval(v[1], v[2], v[3], v[4], v[5], v[6], v[7]); got != want {
			t.Fatalf("Eval mismatch at minterm %d: got %v want %v", m, got, want)
		}
	}
}

func TestEvalMissingInput(t *testing.T) {
	nw, _ := buildExample()
	if _, err := nw.EvalOutputs(map[string]bool{"x1": true}); err == nil {
		t.Fatal("expected error for missing inputs")
	}
}

func TestFanout(t *testing.T) {
	nw, _ := buildExample()
	// In Fig 2(a) no internal node fans out twice; make n3 and n2 shared
	// by adding a second consumer.
	for n, c := range nw.FanoutCounts() {
		if n.Kind == Internal && c > 1 {
			t.Fatalf("unexpected shared node %s (%d fanouts)", n.Name, c)
		}
	}
	b := &Builder{Net: nw}
	extra := b.And("extra", nw.Node("n3"), nw.Node("n2"))
	nw.MarkOutput(extra)
	counts := nw.FanoutCounts()
	if counts[nw.Node("n3")] != 2 || counts[nw.Node("n2")] != 2 {
		t.Fatalf("n3 and n2 should fan out twice: n3=%d n2=%d", counts[nw.Node("n3")], counts[nw.Node("n2")])
	}
}

func TestTopoSortCycleDetection(t *testing.T) {
	nw := New("cyc")
	a := nw.AddInput("a")
	n1 := nw.AddNode("n1", []*Node{a}, logic.MustCover("1"))
	n2 := nw.AddNode("n2", []*Node{n1}, logic.MustCover("1"))
	// Manufacture a cycle.
	n1.Fanins[0] = n2
	if _, err := nw.TopoSort(); err == nil {
		t.Fatal("TopoSort should detect the cycle")
	}
}

func TestLocalFunction(t *testing.T) {
	nw, f := buildExample()
	n3 := nw.Node("n3")
	x5 := nw.Node("x5")
	n2 := nw.Node("n2")
	// f over support (n3, x5, n2) = n3*x5 + n2.
	tt, err := nw.LocalFunction(f, []*Node{n3, x5, n2})
	if err != nil {
		t.Fatal(err)
	}
	want := truth.Var(3, 0).And(truth.Var(3, 1)).Or(truth.Var(3, 2))
	if !tt.Equal(want) {
		t.Fatalf("LocalFunction = %s, want %s", tt, want)
	}
	// Escaping the support must fail.
	if _, err := nw.LocalFunction(f, []*Node{n3}); err == nil {
		t.Fatal("expected error when cone escapes support")
	}
}

func TestCloneIndependence(t *testing.T) {
	nw, _ := buildExample()
	cp := nw.Clone()
	if _, err := cp.TopoSort(); err != nil {
		t.Fatal(err)
	}
	if cp.GateCount() != nw.GateCount() || len(cp.Inputs) != len(nw.Inputs) {
		t.Fatal("clone has different shape")
	}
	// Mutating the clone must not affect the original.
	cp.Node("f").Cover = logic.Zero(2)
	if nw.Node("f").Cover.IsZero() {
		t.Fatal("clone shares cover storage with original")
	}
	// Functional identity on a few vectors.
	in := map[string]bool{"x1": true, "x2": true, "x3": true, "x4": false, "x5": true, "x6": false, "x7": true}
	a, _ := nw.EvalOutputs(in)
	want := true
	if a[0] != want {
		t.Fatalf("original eval = %v, want %v", a[0], want)
	}
}

func TestRemoveDangling(t *testing.T) {
	nw, _ := buildExample()
	b := &Builder{Net: nw}
	dead := b.And("dead", nw.Node("x1"), nw.Node("x2"))
	deader := b.Not("deader", dead)
	_ = deader
	if n := nw.RemoveDangling(); n != 2 {
		t.Fatalf("RemoveDangling removed %d, want 2", n)
	}
	if nw.Node("dead") != nil || nw.Node("deader") != nil {
		t.Fatal("dangling nodes still present")
	}
	if nw.GateCount() != 7 {
		t.Fatalf("GateCount = %d, want 7", nw.GateCount())
	}
}

func TestBuilderGates(t *testing.T) {
	b := NewBuilder("gates")
	a := b.Input("a")
	c := b.Input("b")
	cases := []struct {
		node *Node
		fn   func(x, y bool) bool
	}{
		{b.And("and", a, c), func(x, y bool) bool { return x && y }},
		{b.Or("or", a, c), func(x, y bool) bool { return x || y }},
		{b.Xor("xor", a, c), func(x, y bool) bool { return x != y }},
		{b.Xnor("xnor", a, c), func(x, y bool) bool { return x == y }},
		{b.Nand("nand", a, c), func(x, y bool) bool { return !(x && y) }},
	}
	for _, tc := range cases {
		b.Output(tc.node)
	}
	not := b.Not("not", a)
	b.Output(not)
	mux := b.Mux2("mux", a, c, not)
	b.Output(mux)
	for m := 0; m < 4; m++ {
		x, y := m&1 != 0, m&2 != 0
		vals, err := b.Net.Eval(map[string]bool{"a": x, "b": y})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			if vals[tc.node.Name] != tc.fn(x, y) {
				t.Fatalf("%s(%v,%v) = %v", tc.node.Name, x, y, vals[tc.node.Name])
			}
		}
		if vals["not"] != !x {
			t.Fatalf("not(%v) = %v", x, vals["not"])
		}
		wantMux := y
		if x {
			wantMux = !x == false && vals["not"] == vals["not"] && vals["not"] != false || vals["not"]
			wantMux = vals["not"]
		}
		if vals["mux"] != wantMux {
			t.Fatalf("mux(%v; %v, %v) = %v, want %v", x, y, vals["not"], vals["mux"], wantMux)
		}
	}
}

func TestFreshName(t *testing.T) {
	nw := New("fresh")
	nw.AddInput("a")
	if got := nw.FreshName("b"); got != "b" {
		t.Fatalf("FreshName(b) = %q", got)
	}
	if got := nw.FreshName("a"); got != "a_0" {
		t.Fatalf("FreshName(a) = %q", got)
	}
	nw.AddInput("a_0")
	if got := nw.FreshName("a"); got != "a_1" {
		t.Fatalf("FreshName(a) = %q", got)
	}
}
