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

// TestMergeFollowsReplacementChain: a (kept) absorbs b, then loses to the
// output gate y in the same round; b's fanout must reach y, not the
// deleted a.
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

// gateKeyRef is the key text built with fmt: appendGateKey must write the
// same bytes.
func gateKeyRef(g *Gate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "T%d", g.T)
	for i, in := range g.Inputs {
		fmt.Fprintf(&b, "|%d*%s", g.Weights[i], in)
	}
	return b.String()
}

func TestGateKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var buf []byte
	for iter := 0; iter < 500; iter++ {
		g := &Gate{Name: "g", T: rng.Intn(41) - 20}
		for k := rng.Intn(6); k > 0; k-- {
			g.Inputs = append(g.Inputs, fmt.Sprintf("n%d", rng.Intn(1000)))
			g.Weights = append(g.Weights, rng.Intn(2001)-1000)
		}
		buf = appendGateKey(buf[:0], g)
		if got, want := string(buf), gateKeyRef(g); got != want {
			t.Fatalf("appendGateKey = %q, want %q", got, want)
		}
	}
}
