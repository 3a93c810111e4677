package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestWriteDot(t *testing.T) {
	tn := sampleTN(t)
	var sb strings.Builder
	if err := WriteDot(&sb, tn); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"digraph \"demo\"",
		"\"a\" [shape=circle]",
		"T=1",
		"\"g1\" -> \"f\"",
		"doubleoctagon", // the output gate f
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
}

func TestMergeDuplicates(t *testing.T) {
	tn := NewNetwork("md")
	tn.AddInput("a")
	tn.AddInput("b")
	gates := []*Gate{
		{Name: "g1", Inputs: []string{"a", "b"}, Weights: []int{1, 1}, T: 2},
		{Name: "g2", Inputs: []string{"a", "b"}, Weights: []int{1, 1}, T: 2}, // dup of g1
		{Name: "h1", Inputs: []string{"g1"}, Weights: []int{-1}, T: 0},
		{Name: "h2", Inputs: []string{"g2"}, Weights: []int{-1}, T: 0}, // dup after merge
		{Name: "f", Inputs: []string{"h1", "h2"}, Weights: []int{1, 1}, T: 1},
	}
	for _, g := range gates {
		if err := tn.AddGate(g); err != nil {
			t.Fatal(err)
		}
	}
	tn.MarkOutput("f")
	before := map[int]bool{}
	for m := 0; m < 4; m++ {
		out, err := tn.EvalOutputs(map[string]bool{"a": m&1 != 0, "b": m&2 != 0})
		if err != nil {
			t.Fatal(err)
		}
		before[m] = out[0]
	}
	if got := tn.mergeDuplicates(); got != 2 {
		t.Fatalf("merged %d gates, want 2 (cascading)", got)
	}
	if err := tn.Validate(); err != nil {
		t.Fatal(err)
	}
	if tn.GateCount() != 3 {
		t.Fatalf("gates = %d, want 3", tn.GateCount())
	}
	for m := 0; m < 4; m++ {
		out, err := tn.EvalOutputs(map[string]bool{"a": m&1 != 0, "b": m&2 != 0})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != before[m] {
			t.Fatalf("function changed at %d", m)
		}
	}
}

func TestMergeKeepsOutputs(t *testing.T) {
	tn := NewNetwork("mo")
	tn.AddInput("a")
	for _, name := range []string{"y1", "y2"} {
		if err := tn.AddGate(&Gate{Name: name, Inputs: []string{"a"}, Weights: []int{1}, T: 1}); err != nil {
			t.Fatal(err)
		}
		tn.MarkOutput(name)
	}
	if got := tn.mergeDuplicates(); got != 0 {
		t.Fatalf("merged %d output gates; both must survive", got)
	}
	if tn.Gate("y1") == nil || tn.Gate("y2") == nil {
		t.Fatal("an output gate was removed")
	}
}

// TestMergeFollowsReplacementChain: a absorbs b, then the output gate y
// repeats a, so a survives under the name y; b's fanout must read y, not
// the gone name a.
func TestMergeFollowsReplacementChain(t *testing.T) {
	tn := NewNetwork("mc")
	tn.AddInput("x")
	gates := []*Gate{
		{Name: "a", Inputs: []string{"x"}, Weights: []int{1}, T: 1},
		{Name: "b", Inputs: []string{"x"}, Weights: []int{1}, T: 1},
		{Name: "y", Inputs: []string{"x"}, Weights: []int{1}, T: 1},
		{Name: "z", Inputs: []string{"b"}, Weights: []int{-1}, T: 0},
	}
	for _, g := range gates {
		if err := tn.AddGate(g); err != nil {
			t.Fatal(err)
		}
	}
	tn.MarkOutput("y")
	tn.MarkOutput("z")
	if got := tn.mergeDuplicates(); got != 2 {
		t.Fatalf("merged %d gates, want 2", got)
	}
	if err := tn.Validate(); err != nil {
		t.Fatal(err)
	}
	if in := tn.Gate("z").Inputs[0]; in != "y" {
		t.Fatalf("z reads %s, want y", in)
	}
}

// MergeDuplicates and MergeDuplicatesRounds run the merge and its oracle
// for the external tests, which may import bdd.
func MergeDuplicates(tn *Network) int { return tn.mergeDuplicates() }

func MergeDuplicatesRounds(tn *Network) int { return mergeRounds(tn) }

// mergeRounds is the fixed-point merge that mergeDuplicates replaced, kept
// as its oracle: each round keys every gate on the text of T, its weights
// and its input names, merges equal gates into the first of each class
// (or into a later output gate), follows replacement chains and re-sorts.
func mergeRounds(tn *Network) int {
	outputs := make(map[string]bool, len(tn.Outputs))
	for _, o := range tn.Outputs {
		outputs[o] = true
	}
	removed := 0
	for {
		replace := make(map[string]string)
		seen := make(map[string]*Gate)
		for _, g := range tn.Gates {
			var b strings.Builder
			fmt.Fprintf(&b, "T%d", g.T)
			for i, in := range g.Inputs {
				fmt.Fprintf(&b, "|%d*%s", g.Weights[i], in)
			}
			key := b.String()
			prev, ok := seen[key]
			if !ok {
				seen[key] = g
				continue
			}
			victim, keeper := g, prev
			if outputs[g.Name] && !outputs[prev.Name] {
				victim, keeper = prev, g
				seen[key] = g
			}
			if outputs[victim.Name] {
				continue
			}
			replace[victim.Name] = keeper.Name
		}
		if len(replace) == 0 {
			return removed
		}
		kept := tn.Gates[:0]
		for _, g := range tn.Gates {
			if _, dead := replace[g.Name]; dead {
				delete(tn.signals, g.Name)
				removed++
				continue
			}
			for i, in := range g.Inputs {
				for to, ok := replace[in]; ok; to, ok = replace[to] {
					g.Inputs[i] = to
				}
			}
			kept = append(kept, g)
		}
		tn.Gates = kept
		if err := tn.sortGates(); err != nil {
			panic(err)
		}
	}
}

// randomDupNetwork builds a network whose later gates often copy an
// earlier gate's threshold and weights over copies of its inputs, so
// duplicate cones several levels deep appear, and marks some gates as
// outputs.
func randomDupNetwork(t *testing.T, rng *rand.Rand) *Network {
	tn := NewNetwork("rand")
	nIn := 2 + rng.Intn(4)
	// class[s] lists the signals built as copies of s's cone.
	class := map[string][]string{}
	var signals []string
	for i := 0; i < nIn; i++ {
		name := fmt.Sprintf("x%d", i)
		tn.AddInput(name)
		class[name] = []string{name}
		signals = append(signals, name)
	}
	var gates []*Gate
	for i, n := 0, 4+rng.Intn(25); i < n; i++ {
		g := &Gate{Name: fmt.Sprintf("g%d", i)}
		if len(gates) > 0 && rng.Intn(2) == 0 {
			src := gates[rng.Intn(len(gates))]
			g.T = src.T
			g.Weights = append([]int(nil), src.Weights...)
			for _, in := range src.Inputs {
				twins := class[in]
				g.Inputs = append(g.Inputs, twins[rng.Intn(len(twins))])
			}
			class[src.Name] = append(class[src.Name], g.Name)
			class[g.Name] = class[src.Name]
		} else {
			g.T = rng.Intn(5) - 2
			for k := 1 + rng.Intn(3); k > 0; k-- {
				g.Inputs = append(g.Inputs, signals[rng.Intn(len(signals))])
				g.Weights = append(g.Weights, rng.Intn(5)-2)
			}
			class[g.Name] = []string{g.Name}
		}
		if err := tn.AddGate(g); err != nil {
			t.Fatal(err)
		}
		gates = append(gates, g)
		signals = append(signals, g.Name)
	}
	for _, g := range gates {
		if rng.Intn(8) == 0 {
			tn.MarkOutput(g.Name)
		}
	}
	return tn
}

// outputsLeadClasses reports whether every output gate is the first gate
// of its class, the gates that merge once their drivers have merged.
// Otherwise an output repeats an earlier gate: either a non-output one,
// whose place and name the two merges settle differently, or another
// output, so both survive and the oracle's rounds can send a later
// non-output duplicate to either of them.
func outputsLeadClasses(tn *Network) bool {
	class := map[string]int{}
	for i, in := range tn.Inputs {
		class[in] = -1 - i
	}
	first := map[string]int{}
	for i, g := range tn.Gates {
		key := fmt.Sprint(g.T, g.Weights)
		for _, in := range g.Inputs {
			key += fmt.Sprint(" ", class[in])
		}
		if _, ok := first[key]; !ok {
			first[key] = i
		}
		class[g.Name] = first[key]
	}
	for _, o := range tn.Outputs {
		if g := tn.Gate(o); g != nil && tn.Gates[class[o]] != g {
			return false
		}
	}
	return true
}

// TestMergeMatchesRounds: on random networks with duplicate cones the
// one-pass merge keeps every output function, and it writes the
// fixed-point oracle's .tln bytes whenever every output gate leads its
// class.
func TestMergeMatchesRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	same, repeats := 0, 0
	for iter := 0; iter < 1000; iter++ {
		tn := randomDupNetwork(t, rng)
		ref, err := ParseTLNString(tn.String())
		if err != nil {
			t.Fatal(err)
		}
		orig := tn.String()
		lead := outputsLeadClasses(tn)
		tn.mergeDuplicates()
		mergeRounds(ref)
		if !lead {
			repeats++
		} else if tn.String() != ref.String() {
			t.Fatalf("iter %d: one pass\n%s\noracle\n%s\nfrom\n%s", iter, tn, ref, orig)
		} else {
			same++
		}
		if err := tn.Validate(); err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 1<<len(tn.Inputs); m++ {
			in := map[string]bool{}
			for i, name := range tn.Inputs {
				in[name] = m>>i&1 != 0
			}
			a, _ := tn.EvalOutputs(in)
			b, _ := ref.EvalOutputs(in)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("iter %d: outputs differ at %d\n%s", iter, m, orig)
			}
		}
	}
	if same == 0 || repeats == 0 {
		t.Fatalf("byte comparisons %d, repeat cases %d: the generator misses a case", same, repeats)
	}
}
