package bdd

import (
	"strings"
	"testing"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/netcore"
	"tels/internal/network"
)

// buildComparator2 returns a 2-bit equality network whose natural DFS
// order interleaves the a/b bits.
func buildComparator2() *network.Network {
	b := network.NewBuilder("eq2")
	a0 := b.Input("a0")
	b0 := b.Input("b0")
	a1 := b.Input("a1")
	b1 := b.Input("b1")
	e0 := b.Xnor("e0", a0, b0)
	e1 := b.Xnor("e1", a1, b1)
	b.Output(b.And("eq", e0, e1))
	return b.Net
}

func TestVarOrderInterleaves(t *testing.T) {
	nw := buildComparator2()
	order := VarOrder(netcore.FromNetwork(nw))
	if len(order) != 4 {
		t.Fatalf("order covers %d inputs, want 4", len(order))
	}
	// DFS from eq visits e0 (a0, b0) then e1 (a1, b1).
	if order["a0"] != 0 || order["b0"] != 1 || order["a1"] != 2 || order["b1"] != 3 {
		t.Fatalf("order = %v, want a0,b0,a1,b1", order)
	}
}

func TestVarOrderCoversUnusedInputs(t *testing.T) {
	nw := network.New("un")
	a := nw.AddInput("a")
	nw.AddInput("unused")
	y := nw.AddNode("y", []*network.Node{a}, logic.MustCover("1"))
	nw.MarkOutput(y)
	order := VarOrder(netcore.FromNetwork(nw))
	if len(order) != 2 {
		t.Fatalf("order = %v, want both inputs", order)
	}
}

func TestCompileBooleanMatchesEval(t *testing.T) {
	nw := buildComparator2()
	nc := netcore.FromNetwork(nw)
	order := VarOrder(nc)
	m := New(len(order), 0)
	outs, err := CompileBoolean(m, nc, order)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outputs = %d", len(outs))
	}
	assign := make([]bool, 4)
	for v := 0; v < 16; v++ {
		in := map[string]bool{}
		for name, level := range order {
			val := v&(1<<uint(level)) != 0
			in[name] = val
			assign[level] = val
		}
		want, err := nw.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		if m.Eval(outs[0], assign) != want[0] {
			t.Fatalf("BDD differs from network at %d", v)
		}
	}
}

func TestCompileBooleanMissingLevel(t *testing.T) {
	nw := buildComparator2()
	m := New(1, 0)
	if _, err := CompileBoolean(m, netcore.FromNetwork(nw), map[string]int{"a0": 0}); err == nil {
		t.Fatal("missing input level accepted")
	}
}

func TestCompileThresholdMatchesEval(t *testing.T) {
	tn := core.NewNetwork("thr")
	tn.AddInput("a")
	tn.AddInput("b")
	tn.AddInput("c")
	if err := tn.AddGate(&core.Gate{
		Name: "g", Inputs: []string{"a", "b", "c"}, Weights: []int{2, -1, 1}, T: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tn.AddGate(&core.Gate{
		Name: "f", Inputs: []string{"g", "c"}, Weights: []int{1, 1}, T: 2,
	}); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")
	tn.MarkOutput("a") // a PI as output

	levels := map[string]int{"a": 0, "b": 1, "c": 2}
	m := New(3, 0)
	outs, err := CompileThreshold(m, tn, levels)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]bool, 3)
	for v := 0; v < 8; v++ {
		in := map[string]bool{}
		for name, level := range levels {
			val := v&(1<<uint(level)) != 0
			in[name] = val
			assign[level] = val
		}
		want, err := tn.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if m.Eval(outs[i], assign) != want[i] {
				t.Fatalf("output %d differs at %d", i, v)
			}
		}
	}
}

func TestCompileThresholdErrors(t *testing.T) {
	tn := core.NewNetwork("bad")
	tn.AddInput("a")
	if err := tn.AddGate(&core.Gate{Name: "f", Inputs: []string{"a"}, Weights: []int{1}, T: 1}); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")
	m := New(1, 0)
	if _, err := CompileThreshold(m, tn, map[string]int{}); err == nil {
		t.Fatal("missing input level accepted")
	}
	tn.Outputs = append(tn.Outputs, "ghost")
	if _, err := CompileThreshold(m, tn, map[string]int{"a": 0}); err == nil {
		t.Fatal("undriven output accepted")
	}
	// AddGate refuses a gate reading an unknown signal, but Gates is an
	// exported slice; such a gate must not read its input as False.
	tn.Outputs = []string{"h"}
	tn.Gates = append(tn.Gates, &core.Gate{Name: "h", Inputs: []string{"ghost"}, Weights: []int{1}, T: 1})
	_, err := CompileThreshold(New(1, 0), tn, map[string]int{"a": 0})
	if err == nil || !strings.Contains(err.Error(), "gate h reads ghost") {
		t.Fatalf("gate reading an unknown signal: err = %v, want one naming gate h and ghost", err)
	}
}

// TestCompileThresholdHugeWeights compiles a gate with weights of ±10⁹,
// as a hand-written .tln may hold, and checks it against Gate.Eval on
// every input vector. The threshold memo must hold only the (input,
// remainder) pairs the gate reaches, at most 7 here, not a range as wide
// as the weights.
func TestCompileThresholdHugeWeights(t *testing.T) {
	tn := core.NewNetwork("huge")
	for _, in := range []string{"a", "b", "c"} {
		tn.AddInput(in)
	}
	g := &core.Gate{Name: "f", Inputs: []string{"a", "b", "c"},
		Weights: []int{1_000_000_000, -1_000_000_000, 1_000_000_000}, T: 1_000_000_000}
	if err := tn.AddGate(g); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")
	m := New(3, 0)
	outs, err := CompileThreshold(m, tn, map[string]int{"a": 0, "b": 1, "c": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.thr.memo) != initialMemo || m.thr.used > 7 {
		t.Fatalf("memo has %d slots and %d pairs, want %d slots and at most 7 pairs",
			len(m.thr.memo), m.thr.used, initialMemo)
	}
	in := make([]bool, 3)
	for v := 0; v < 8; v++ {
		for i := range in {
			in[i] = v>>i&1 == 1
		}
		if got, want := m.Eval(outs[0], in), g.Eval(in); got != want {
			t.Fatalf("vector %03b: BDD %v, Gate.Eval %v", v, got, want)
		}
	}
}

func TestManagerAccessors(t *testing.T) {
	m := New(5, 0)
	if m.Size() != 2 {
		t.Fatalf("fresh manager size = %d, want 2 terminals", m.Size())
	}
	if _, err := m.Var(0); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 3 {
		t.Fatalf("size after one var = %d", m.Size())
	}
}
