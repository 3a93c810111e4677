package core

import (
	"math/rand"
	"slices"
	"testing"

	"tels/internal/ilp"
	"tels/internal/logic"
	"tels/internal/network"
	"tels/internal/truth"
)

// fig2a builds the paper's motivational Boolean network (Fig. 2(a)).
func fig2a() *network.Network {
	b := network.NewBuilder("fig2a")
	var x [8]*network.Node
	for i := 1; i <= 7; i++ {
		x[i] = b.Input("x" + string(rune('0'+i)))
	}
	n4 := b.And("n4", x[1], x[2], x[3])
	inv := b.Not("inv", x[1])
	n5 := b.And("n5", inv, x[4])
	n3 := b.Or("n3", n4, n5)
	n1 := b.And("n1", n3, x[5])
	n2 := b.And("n2", x[6], x[7])
	f := b.Or("f", n1, n2)
	b.Output(f)
	return b.Net
}

// checkEquivalent verifies the threshold network matches the Boolean
// network on all (≤ 14 inputs) or 4096 random vectors.
func checkEquivalent(t *testing.T, nw *network.Network, tn *Network) {
	t.Helper()
	n := len(nw.Inputs)
	exhaustive := n <= 14
	vectors := 1 << uint(n)
	if !exhaustive {
		vectors = 4096
	}
	rng := rand.New(rand.NewSource(123))
	for v := 0; v < vectors; v++ {
		in := make(map[string]bool, n)
		for i, node := range nw.Inputs {
			if exhaustive {
				in[node.Name] = v&(1<<uint(i)) != 0
			} else {
				in[node.Name] = rng.Intn(2) == 1
			}
		}
		want, err := nw.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tn.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("output %s differs on vector %d: bool=%v thr=%v",
					nw.Outputs[i].Name, v, want[i], got[i])
			}
		}
	}
}

// checkGateInvariants verifies ψ and the δ-margins of every gate against
// its exact local function.
func checkGateInvariants(t *testing.T, tn *Network, o Options) {
	t.Helper()
	if got := tn.MaxFanin(); got > o.Fanin {
		t.Fatalf("max fanin %d exceeds ψ=%d", got, o.Fanin)
	}
	// Rebuild each gate's function from its weight vector... the margin
	// check needs the intended function; here we check self-consistency:
	// the realized function of the weights must respect the margins, i.e.
	// no input combination may land in the forbidden band
	// (T-δoff, T+δon).
	for _, g := range tn.Gates {
		n := len(g.Inputs)
		if n > 16 {
			t.Fatalf("gate %s too wide to check", g.Name)
		}
		for m := 0; m < 1<<uint(n); m++ {
			sum := 0
			for i := 0; i < n; i++ {
				if m&(1<<uint(i)) != 0 {
					sum += g.Weights[i]
				}
			}
			if sum > g.T-o.DeltaOff && sum < g.T+o.DeltaOn {
				t.Fatalf("gate %s: weighted sum %d falls inside the forbidden band (T=%d, δon=%d, δoff=%d)",
					g.Name, sum, g.T, o.DeltaOn, o.DeltaOff)
			}
			if sum >= g.T && sum < g.T+o.DeltaOn {
				t.Fatalf("gate %s: ON margin violated", g.Name)
			}
			if sum < g.T && sum > g.T-o.DeltaOff {
				t.Fatalf("gate %s: OFF margin violated", g.Name)
			}
		}
	}
}

func TestMotivationalExample(t *testing.T) {
	nw := fig2a()
	o := Options{Fanin: 4, DeltaOn: 0, DeltaOff: 1}
	tn, stats, err := Synthesize(nw, o)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, nw, tn)
	checkGateInvariants(t, tn, o)
	// The paper synthesizes this network into 5 gates and 3 levels with
	// ψ=4 (Fig. 2(b)). Heuristic orderings may differ slightly; require
	// strict improvement over the 7-gate/5-level one-to-one result and
	// allow a small band around the paper's numbers.
	s := tn.Stats()
	if s.Gates > 6 || s.Gates < 3 {
		t.Fatalf("gates = %d, want about 5 (paper) and < 7 (one-to-one)", s.Gates)
	}
	if s.Levels > 4 {
		t.Fatalf("levels = %d, want about 3", s.Levels)
	}
	if stats.ILPCalls == 0 {
		t.Fatal("no ILP calls recorded")
	}
}

func TestSynthesizePreservesFanout(t *testing.T) {
	// n3 shared by two outputs must remain a single gate.
	b := network.NewBuilder("shared")
	x1 := b.Input("x1")
	x2 := b.Input("x2")
	x3 := b.Input("x3")
	x4 := b.Input("x4")
	n3 := b.Or("n3", b.And("a1", x1, x2), b.And("a2", x3, x4))
	y1 := b.And("y1", n3, x1)
	y2 := b.Or("y2", n3, x4)
	b.Output(y1)
	b.Output(y2)
	o := DefaultOptions()
	tn, _, err := Synthesize(b.Net, o)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, b.Net, tn)
	if tn.Gate("n3") == nil {
		t.Fatalf("fanout node n3 not preserved; gates: %v", tn.SortedGateNames())
	}
	// n3 must be referenced by both y1 and y2 cones.
	refs := 0
	for _, g := range tn.Gates {
		for _, in := range g.Inputs {
			if in == "n3" {
				refs++
			}
		}
	}
	if refs < 2 {
		t.Fatalf("n3 referenced %d times, want ≥ 2", refs)
	}
}

func TestSynthesizeXor(t *testing.T) {
	// XOR forces binate splitting.
	b := network.NewBuilder("xor")
	x := b.Input("x")
	y := b.Input("y")
	b.Output(b.Xor("f", x, y))
	o := DefaultOptions()
	tn, stats, err := Synthesize(b.Net, o)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, b.Net, tn)
	checkGateInvariants(t, tn, o)
	if stats.BinateSplits == 0 {
		t.Fatal("xor should trigger a binate split")
	}
	if tn.GateCount() < 3 {
		t.Fatalf("xor needs ≥ 3 LTGs, got %d", tn.GateCount())
	}
}

func TestSynthesizeBinatePaperExample(t *testing.T) {
	// §V-D: n = !x1 x4 + x2 x3 + !x2 x4 x5 with ψ=5 becomes an OR of
	// three threshold parts.
	nw := network.New("vd")
	var ins []*network.Node
	for i := 1; i <= 5; i++ {
		ins = append(ins, nw.AddInput("x"+string(rune('0'+i))))
	}
	n := nw.AddNode("n", ins, logic.MustCover("0--1-", "-11--", "-0-11"))
	nw.MarkOutput(n)
	o := Options{Fanin: 5, DeltaOn: 0, DeltaOff: 1}
	tn, stats, err := Synthesize(nw, o)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, nw, tn)
	checkGateInvariants(t, tn, o)
	if stats.BinateSplits == 0 {
		t.Fatal("expected a binate split")
	}
	top := tn.Gate("n")
	if top == nil {
		t.Fatal("no top gate named n")
	}
	// Top gate is an OR: unit weights, threshold 1.
	if top.T != 1 {
		t.Fatalf("top gate T = %d, want 1 (OR)", top.T)
	}
	for _, w := range top.Weights {
		if w != 1 {
			t.Fatalf("top gate weights = %v, want all 1", top.Weights)
		}
	}
}

func TestSynthesizeWideAnd(t *testing.T) {
	// 9-input AND with ψ=3 must become a tree of ANDs.
	b := network.NewBuilder("wide")
	var ins []*network.Node
	for i := 0; i < 9; i++ {
		ins = append(ins, b.Input("x"+string(rune('a'+i))))
	}
	b.Output(b.And("f", ins...))
	o := DefaultOptions()
	tn, _, err := Synthesize(b.Net, o)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, b.Net, tn)
	checkGateInvariants(t, tn, o)
}

func TestSynthesizeConstantOutputs(t *testing.T) {
	nw := network.New("consts")
	a := nw.AddInput("a")
	one := nw.AddNode("one", []*network.Node{a}, logic.MustCover("1", "0"))
	zero := nw.AddNode("zero", nil, logic.Zero(0))
	nw.MarkOutput(one)
	nw.MarkOutput(zero)
	tn, _, err := Synthesize(nw, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := tn.EvalOutputs(map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != true || out[1] != false {
		t.Fatalf("constants = %v", out)
	}
}

// TestConstGateMargins pins the constant-gate rule every mapper uses: the
// zero-input sum 0 clears the ON margin for constant 1 and the OFF
// margin for constant 0.
func TestConstGateMargins(t *testing.T) {
	for don := 0; don <= 3; don++ {
		for doff := 1; doff <= 3; doff++ {
			one, zero := ConstGate("c", true, don, doff), ConstGate("c", false, don, doff)
			if !one.Eval(nil) || 0 < one.T+don {
				t.Errorf("δon=%d δoff=%d: constant 1 has T=%d", don, doff, one.T)
			}
			if zero.Eval(nil) || 0 > zero.T-doff {
				t.Errorf("δon=%d δoff=%d: constant 0 has T=%d", don, doff, zero.T)
			}
		}
	}
}

func TestSynthesizePIOutput(t *testing.T) {
	nw := network.New("pipo")
	a := nw.AddInput("a")
	bn := nw.AddNode("f", []*network.Node{a}, logic.MustCover("0"))
	nw.MarkOutput(a)
	nw.MarkOutput(bn)
	tn, _, err := Synthesize(nw, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := tn.EvalOutputs(map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != true || out[1] != false {
		t.Fatalf("outputs = %v", out)
	}
}

func TestSynthesizeRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 25; iter++ {
		nw := randomNet(rng, 3+rng.Intn(5), 4+rng.Intn(8))
		for _, psi := range []int{2, 3, 4, 6} {
			o := Options{Fanin: psi, DeltaOn: 0, DeltaOff: 1, Seed: int64(iter)}
			tn, _, err := Synthesize(nw, o)
			if err != nil {
				t.Fatalf("iter %d ψ=%d: %v", iter, psi, err)
			}
			checkEquivalent(t, nw, tn)
			checkGateInvariants(t, tn, o)
		}
	}
}

func TestSynthesizeWithDefectTolerances(t *testing.T) {
	nw := fig2a()
	for deltaOn := 0; deltaOn <= 3; deltaOn++ {
		o := Options{Fanin: 3, DeltaOn: deltaOn, DeltaOff: 1}
		tn, _, err := Synthesize(nw, o)
		if err != nil {
			t.Fatalf("δon=%d: %v", deltaOn, err)
		}
		checkEquivalent(t, nw, tn)
		checkGateInvariants(t, tn, o)
	}
}

func TestSynthesizeAreaGrowsWithDeltaOn(t *testing.T) {
	nw := fig2a()
	prev := 0
	for deltaOn := 0; deltaOn <= 3; deltaOn++ {
		tn, _, err := Synthesize(nw, Options{Fanin: 3, DeltaOn: deltaOn, DeltaOff: 1})
		if err != nil {
			t.Fatal(err)
		}
		a := tn.Area()
		if a < prev {
			t.Fatalf("area decreased with δon: %d -> %d", prev, a)
		}
		prev = a
	}
}

func TestOptionsValidation(t *testing.T) {
	nw := fig2a()
	if _, _, err := Synthesize(nw, Options{Fanin: 1}); err == nil {
		t.Fatal("ψ=1 must be rejected")
	}
	if _, _, err := Synthesize(nw, Options{Fanin: 3, DeltaOn: -1, DeltaOff: 1}); err == nil {
		t.Fatal("negative δon must be rejected")
	}
	if _, _, err := Synthesize(nw, Options{Fanin: 100}); err == nil {
		t.Fatal("huge ψ must be rejected")
	}
	// At δoff = 0 every check's optimum is the all-zero gate.
	if _, _, err := Synthesize(nw, Options{Fanin: 3}); err == nil {
		t.Fatal("δoff=0 must be rejected")
	}
	if _, err := OneToOne(nw, Options{Fanin: 3}); err == nil {
		t.Fatal("δoff=0 must be rejected by the one-to-one mapper")
	}
	// A negative cap is refused for what it is, not as a cap below δon+δoff.
	for _, err := range []error{
		(&Options{Fanin: 3, DeltaOff: 1, MaxWeight: -1}).Validate(),
		func() error { _, err := OneToOne(nw, Options{Fanin: 3, DeltaOff: 1, MaxWeight: -1}); return err }(),
	} {
		if err == nil || err.Error() != "core: negative max weight -1 (0 means unbounded)" {
			t.Fatalf("MaxWeight -1: got %v", err)
		}
	}
}

func randomNet(rng *rand.Rand, inputs, gates int) *network.Network {
	nw := network.New("rnd")
	var signals []*network.Node
	for i := 0; i < inputs; i++ {
		signals = append(signals, nw.AddInput("i"+string(rune('a'+i))))
	}
	for g := 0; g < gates; g++ {
		k := 2 + rng.Intn(3)
		if k > len(signals) {
			k = len(signals)
		}
		perm := rng.Perm(len(signals))
		fanins := make([]*network.Node, k)
		for i := 0; i < k; i++ {
			fanins[i] = signals[perm[i]]
		}
		cover := logic.NewCover(k)
		for c := 0; c < 1+rng.Intn(3); c++ {
			cube := logic.NewCube(k)
			any := false
			for j := 0; j < k; j++ {
				switch rng.Intn(3) {
				case 0:
					cube[j] = logic.Pos
					any = true
				case 1:
					cube[j] = logic.Neg
					any = true
				}
			}
			if any {
				cover.AddCube(cube)
			}
		}
		if cover.IsZero() {
			cb := logic.NewCube(k)
			cb[0] = logic.Pos
			cover.AddCube(cb)
		}
		signals = append(signals, nw.AddNode(nw.FreshName("g"), fanins, cover))
	}
	outs := 0
	for i := len(signals) - 1; i >= 0 && outs < 3; i-- {
		if signals[i].Kind == network.Internal {
			nw.MarkOutput(signals[i])
			outs++
		}
	}
	nw.RemoveDangling()
	return nw
}

func TestOneToOneFig2a(t *testing.T) {
	nw := fig2a()
	o := Options{Fanin: 4, DeltaOn: 0, DeltaOff: 1}
	tn, err := OneToOne(nw, o)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, nw, tn)
	checkGateInvariants(t, tn, o)
	// One-to-one on the raw Fig 2(a) yields 7 gates (paper §III).
	if tn.GateCount() != 7 {
		t.Fatalf("one-to-one gates = %d, want 7", tn.GateCount())
	}
	if _, depth := tn.Levels(); depth != 5 {
		t.Fatalf("one-to-one levels = %d, want 5", depth)
	}
}

func TestOneToOneRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 15; iter++ {
		nw := randomNet(rng, 4+rng.Intn(4), 5+rng.Intn(6))
		for _, psi := range []int{2, 3, 5} {
			o := Options{Fanin: psi, DeltaOn: 0, DeltaOff: 1}
			tn, err := OneToOne(nw, o)
			if err != nil {
				t.Fatalf("iter %d ψ=%d: %v", iter, psi, err)
			}
			checkEquivalent(t, nw, tn)
			checkGateInvariants(t, tn, o)
		}
	}
}

// TestOneToOneKeepsOutputNames maps a source whose output a_n carries the
// name the decomposition would give the shared inverter of a. The outputs
// must keep the source's names, and the gate named after each output must
// compute that output.
func TestOneToOneKeepsOutputNames(t *testing.T) {
	nw := network.New("collide")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	nw.MarkOutput(nw.AddNode("a_n", []*network.Node{a, b}, logic.MustCover("01")))
	nw.MarkOutput(nw.AddNode("y", []*network.Node{a, b}, logic.MustCover("00")))
	tn, err := OneToOne(nw, Options{Fanin: 2, DeltaOn: 0, DeltaOff: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tn.Outputs, []string{"a_n", "y"}) {
		t.Fatalf("outputs = %v, want [a_n y]", tn.Outputs)
	}
	for v := 0; v < 4; v++ {
		in := map[string]bool{"a": v&1 != 0, "b": v&2 != 0}
		want, err := nw.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tn.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range nw.Outputs {
			if got[o.Name] != want[i] {
				t.Fatalf("a=%v b=%v: gate %s = %v, source %v", in["a"], in["b"], o.Name, got[o.Name], want[i])
			}
		}
	}
}

func TestGateAreaEq14(t *testing.T) {
	g := &Gate{Name: "g", Inputs: []string{"a", "b", "c"}, Weights: []int{2, -1, -1}, T: 1}
	if got := g.Area(); got != 5 {
		t.Fatalf("area = %d, want |2|+|-1|+|-1|+|1| = 5", got)
	}
}

func TestNetworkLevelsAndArea(t *testing.T) {
	tn := NewNetwork("t")
	tn.AddInput("a")
	tn.AddInput("b")
	if err := tn.AddGate(&Gate{Name: "g1", Inputs: []string{"a", "b"}, Weights: []int{1, 1}, T: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tn.AddGate(&Gate{Name: "g2", Inputs: []string{"g1", "a"}, Weights: []int{1, 1}, T: 1}); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("g2")
	if _, depth := tn.Levels(); depth != 2 {
		t.Fatalf("depth = %d, want 2", depth)
	}
	if tn.Area() != 4+3 {
		t.Fatalf("area = %d, want 7", tn.Area())
	}
	if err := tn.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkErrors(t *testing.T) {
	tn := NewNetwork("e")
	tn.AddInput("a")
	if err := tn.AddGate(&Gate{Name: "a", T: 1}); err == nil {
		t.Fatal("gate shadowing input must fail")
	}
	if err := tn.AddGate(&Gate{Name: "g", Inputs: []string{"x"}, Weights: []int{1, 2}, T: 1}); err == nil {
		t.Fatal("weight/input mismatch must fail")
	}
	if err := tn.AddGate(&Gate{Name: "g", Inputs: []string{"missing"}, Weights: []int{1}, T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tn.AddGate(&Gate{Name: "g", T: 1}); err == nil {
		t.Fatal("duplicate gate must fail")
	}
	tn.MarkOutput("g")
	if err := tn.Validate(); err == nil {
		t.Fatal("undriven gate input must fail validation")
	}
}

func TestSynthesizeDeterministicWithSeed(t *testing.T) {
	nw := fig2a()
	o := Options{Fanin: 3, DeltaOn: 0, DeltaOff: 1, Seed: 42}
	a, _, err := Synthesize(nw, o)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Synthesize(nw, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed must give identical networks")
	}
}

func TestCollapseRespectsDone(t *testing.T) {
	// A chain a->n1->n2->f with ψ large: f collapses across n2 and n1 all
	// the way to the input, producing a single gate.
	b := network.NewBuilder("chain")
	x1 := b.Input("x1")
	x2 := b.Input("x2")
	x3 := b.Input("x3")
	n1 := b.And("n1", x1, x2)
	n2 := b.Or("n2", n1, x3)
	f := b.And("f", n2, x1)
	b.Output(f)
	o := Options{Fanin: 5, DeltaOn: 0, DeltaOff: 1}
	tn, stats, err := Synthesize(b.Net, o)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, b.Net, tn)
	if stats.Collapses == 0 {
		t.Fatal("expected collapsing on the chain")
	}
	if tn.GateCount() > 2 {
		t.Fatalf("gates = %d, want the chain collapsed (≤ 2)", tn.GateCount())
	}
}

// Property test: the ILP-based synthesis output always respects margins,
// fanin, equivalence, and never emits an unused gate.
func TestNoDanglingGates(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for iter := 0; iter < 10; iter++ {
		nw := randomNet(rng, 5, 8)
		tn, _, err := Synthesize(nw, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		used := make(map[string]bool)
		for _, o := range tn.Outputs {
			used[o] = true
		}
		for _, g := range tn.Gates {
			for _, in := range g.Inputs {
				used[in] = true
			}
		}
		for _, g := range tn.Gates {
			if !used[g.Name] {
				t.Fatalf("iter %d: gate %s is dangling", iter, g.Name)
			}
		}
	}
}

func TestVerifyVectorRejectsBad(t *testing.T) {
	f := truth.Var(2, 0).And(truth.Var(2, 1))
	good := WeightVector{Weights: []int{1, 1}, T: 2}
	if !VerifyVector(f, good, 0, 1) {
		t.Fatal("good AND vector rejected")
	}
	bad := WeightVector{Weights: []int{1, 1}, T: 1} // realizes OR
	if VerifyVector(f, bad, 0, 1) {
		t.Fatal("OR vector accepted for AND")
	}
	short := WeightVector{Weights: []int{1}, T: 1}
	if VerifyVector(f, short, 0, 1) {
		t.Fatal("arity mismatch accepted")
	}
}

var _ = ilp.Solver{} // keep the import for documentation-style references

func TestMaxWeightRespected(t *testing.T) {
	// f = x1x2 + x1x3 needs weight 2 on x1 as a single gate; with
	// MaxWeight 1 it must split into unit-weight gates instead.
	nw := network.New("mw")
	var ins []*network.Node
	for i := 1; i <= 3; i++ {
		ins = append(ins, nw.AddInput("x"+string(rune('0'+i))))
	}
	f := nw.AddNode("f", ins, logic.MustCover("11-", "1-1"))
	nw.MarkOutput(f)

	unbounded, _, err := Synthesize(nw, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.GateCount() != 1 {
		t.Fatalf("unbounded synthesis used %d gates, want 1", unbounded.GateCount())
	}

	o := DefaultOptions()
	o.MaxWeight = 1
	bounded, _, err := Synthesize(nw, o)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, nw, bounded)
	if bounded.GateCount() < 2 {
		t.Fatalf("bounded synthesis used %d gates; expected a split", bounded.GateCount())
	}
	for _, g := range bounded.Gates {
		for _, w := range g.Weights {
			if w > 1 || w < -1 {
				t.Fatalf("gate %s has weight %d beyond the bound", g.Name, w)
			}
		}
	}
}

func TestMaxWeightOnBenchmarkFlavour(t *testing.T) {
	nw := fig2a()
	o := DefaultOptions()
	o.MaxWeight = 2
	tn, _, err := Synthesize(nw, o)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, nw, tn)
	for _, g := range tn.Gates {
		for _, w := range g.Weights {
			if w > 2 || w < -2 {
				t.Fatalf("gate %s weight %d beyond bound 2", g.Name, w)
			}
		}
	}
}

func TestMaxWeightValidation(t *testing.T) {
	nw := fig2a()
	o := Options{Fanin: 3, DeltaOn: 2, DeltaOff: 2, MaxWeight: 3}
	if _, _, err := Synthesize(nw, o); err == nil {
		t.Fatal("MaxWeight below δon+δoff must be rejected")
	}
}
