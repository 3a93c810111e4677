package core

import (
	"strings"
	"testing"
)

func sampleTN(t *testing.T) *Network {
	t.Helper()
	tn := NewNetwork("demo")
	tn.AddInput("a")
	tn.AddInput("b")
	tn.AddInput("c")
	gates := []*Gate{
		{Name: "g1", Inputs: []string{"a", "b", "c"}, Weights: []int{2, -1, -1}, T: 1},
		{Name: "f", Inputs: []string{"g1", "c"}, Weights: []int{1, 1}, T: 1},
	}
	for _, g := range gates {
		if err := tn.AddGate(g); err != nil {
			t.Fatal(err)
		}
	}
	tn.MarkOutput("f")
	return tn
}

func TestTLNRoundTrip(t *testing.T) {
	tn := sampleTN(t)
	text := tn.String()
	back, err := ParseTLNString(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if back.Name != "demo" || len(back.Inputs) != 3 || len(back.Gates) != 2 {
		t.Fatalf("round trip shape wrong: %+v", back)
	}
	for m := 0; m < 8; m++ {
		in := map[string]bool{"a": m&1 != 0, "b": m&2 != 0, "c": m&4 != 0}
		x, _ := tn.EvalOutputs(in)
		y, _ := back.EvalOutputs(in)
		if x[0] != y[0] {
			t.Fatalf("round trip differs at %d", m)
		}
	}
}

func TestTLNNegativeWeightsFormat(t *testing.T) {
	tn := sampleTN(t)
	text := tn.String()
	if !strings.Contains(text, "-1*b") {
		t.Fatalf("negative weight not rendered:\n%s", text)
	}
	if !strings.Contains(text, "[T=1]") {
		t.Fatalf("threshold not rendered:\n%s", text)
	}
}

func TestTLNParseErrors(t *testing.T) {
	cases := []string{
		".tnet x\n.inputs a\n.outputs f\n.gate f = T=1 +1*a\n.end",   // bad threshold
		".tnet x\n.inputs a\n.outputs f\n.gate f = [T=z] +1*a\n.end", // bad number
		".tnet x\n.inputs a\n.outputs f\n.gate f [T=1] +1*a\n.end",   // missing =
		".tnet x\n.inputs a\n.outputs f\n.gate f = [T=1] a\n.end",    // missing weight
		".tnet x\n.inputs a\n.outputs f\n.gate f = [T=1] +1*\n.end",  // missing name
		".tnet x\n.inputs a\n.outputs f\n.wat\n.end",                 // unknown directive
		".tnet x\n.inputs a\n.outputs f\n.end",                       // undriven output
	}
	for i, c := range cases {
		if _, err := ParseTLNString(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// A line longer than the parser's 1 MiB limit is an error, not the end
// of the file; a line above bufio's 4 KiB starting buffer parses.
func TestTLNLongLine(t *testing.T) {
	text := func(comment int) string {
		return ".tnet x\n.inputs a\n#" + strings.Repeat("x", comment) +
			"\n.outputs f\n.gate f = [T=1] +1*a\n.end\n"
	}
	if _, err := ParseTLNString(text(2 << 20)); err == nil {
		t.Fatal("a 2 MiB line parsed without error")
	}
	tn, err := ParseTLNString(text(64 << 10))
	if err != nil {
		t.Fatalf("64 KiB line: %v", err)
	}
	if len(tn.Gates) != 1 {
		t.Fatalf("64 KiB line: %d gates, want 1", len(tn.Gates))
	}
}

// TestTLNOutOfOrderGates: gate lines may come in any order; the parsed
// Gates are topological and print as the in-order file does.
func TestTLNOutOfOrderGates(t *testing.T) {
	inOrder := ".tnet o\n.inputs a b\n.outputs f\n" +
		".gate g = [T=2] +1*a +1*b\n.gate h = [T=0] -1*g\n.gate f = [T=1] +1*h +1*a\n.end\n"
	outOfOrder := ".tnet o\n.inputs a b\n.outputs f\n" +
		".gate f = [T=1] +1*h +1*a\n.gate h = [T=0] -1*g\n.gate g = [T=2] +1*a +1*b\n.end\n"
	want, err := ParseTLNString(inOrder)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseTLNString(outOfOrder)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, g := range got.Gates {
		names = append(names, g.Name)
	}
	if strings.Join(names, " ") != "g h f" {
		t.Fatalf("Gates = %v, want [g h f]", names)
	}
	if got.String() != inOrder || want.String() != inOrder {
		t.Fatalf("out-of-order file prints\n%s\nwant\n%s", got, inOrder)
	}
}

func TestTLNRejectsCycle(t *testing.T) {
	text := ".tnet c\n.inputs a\n.outputs f\n" +
		".gate f = [T=1] +1*g +1*a\n.gate g = [T=1] +1*f\n.end\n"
	_, err := ParseTLNString(text)
	if err == nil || !strings.Contains(err.Error(), "cycle through gate") {
		t.Fatalf("err = %v, want a cycle error", err)
	}
}

// TestTLNRejectsRedeclaredInput: an input may be declared once, and not
// under a gate's name, whichever line comes first.
func TestTLNRejectsRedeclaredInput(t *testing.T) {
	for _, c := range []struct{ text, want string }{
		{".outputs a\n.gate a = [T=1]\n.inputs a\n", "tln: line 3: input a names a gate"},
		{".inputs a a\n.outputs a\n", "tln: line 1: input a repeats an input"},
		{".inputs a\n.outputs a\n.gate a = [T=1]\n", "tln: line 3: core: gate a shadows a primary input"},
	} {
		_, err := ParseTLNString(c.text)
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: err = %v, want %q", c.text, err, c.want)
		}
	}
}

func TestTLNComments(t *testing.T) {
	text := `
# comment
.tnet c
.inputs a  # trailing
.outputs f
.gate f = [T=0] -1*a
.end
`
	tn, err := ParseTLNString(text)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tn.EvalOutputs(map[string]bool{"a": false})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0] {
		t.Fatal("inverter gate should output 1 on input 0")
	}
}

func TestWriteTLNAndAccessors(t *testing.T) {
	tn := sampleTN(t)
	var sb strings.Builder
	if err := WriteTLN(&sb, tn); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), ".tnet demo") {
		t.Fatalf("WriteTLN output wrong:\n%s", sb.String())
	}
	if tn.GateCount() != 2 || tn.Gate("f") == nil || tn.Gate("g1") == nil {
		t.Fatalf("gates = %v, want g1 and f", tn.Gates)
	}
}

func TestGateEvalPerturbed(t *testing.T) {
	g := &Gate{Name: "g", Inputs: []string{"a", "b"}, Weights: []int{1, 1}, T: 2}
	in := []bool{true, true}
	if !g.EvalPerturbed(in, []float64{0, 0}) {
		t.Fatal("AND(1,1) with zero noise should fire")
	}
	// Noise pushing the sum below threshold flips the output.
	if g.EvalPerturbed(in, []float64{-0.6, -0.6}) {
		t.Fatal("heavily disturbed AND should not fire")
	}
}

func TestSplitStrategyString(t *testing.T) {
	for s, want := range map[SplitStrategy]string{
		SplitFrequency:    "frequency",
		SplitBalanced:     "balanced",
		SplitRandom:       "random",
		SplitStrategy(99): "unknown",
	} {
		if s.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
}
