package blif

import (
	"fmt"
	"strings"
	"testing"

	"tels/internal/mcnc"
	"tels/internal/network"
)

const sample = `
# the paper's Fig 2(a) network
.model fig2a
.inputs x1 x2 x3 x4 x5 x6 x7
.outputs f
.names x1 x2 x3 n4
111 1
.names x1 inv
0 1
.names inv x4 n5
11 1
.names n4 n5 n3
1- 1
-1 1
.names n3 x5 n1
11 1
.names x6 x7 n2
11 1
.names n1 n2 f
1- 1
-1 1
.end
`

func TestParseSample(t *testing.T) {
	nw, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Name != "fig2a" {
		t.Errorf("name = %q", nw.Name)
	}
	if len(nw.Inputs) != 7 || len(nw.Outputs) != 1 {
		t.Fatalf("I/O = %d/%d", len(nw.Inputs), len(nw.Outputs))
	}
	if nw.GateCount() != 7 {
		t.Fatalf("gates = %d, want 7", nw.GateCount())
	}
	out, err := nw.EvalOutputs(map[string]bool{
		"x1": true, "x2": true, "x3": true, "x4": false,
		"x5": true, "x6": false, "x7": false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0] {
		t.Fatal("f(1110100..) should be 1")
	}
}

func TestRoundTrip(t *testing.T) {
	nw, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	text, err := WriteString(nw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if back.GateCount() != nw.GateCount() {
		t.Fatalf("round trip changed gate count: %d -> %d", nw.GateCount(), back.GateCount())
	}
	// Behavioural identity on all 128 input vectors.
	for m := 0; m < 128; m++ {
		in := map[string]bool{}
		for i := 1; i <= 7; i++ {
			in["x"+string(rune('0'+i))] = m&(1<<uint(i-1)) != 0
		}
		a, _ := nw.EvalOutputs(in)
		b, _ := back.EvalOutputs(in)
		if a[0] != b[0] {
			t.Fatalf("round trip differs at vector %d", m)
		}
	}
}

func TestContinuationAndComments(t *testing.T) {
	text := `
.model c
.inputs a \
 b
.outputs y
.names a b y  # a comment
11 1
.end
`
	nw, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Inputs) != 2 {
		t.Fatalf("inputs = %d, want 2", len(nw.Inputs))
	}
}

func TestConstants(t *testing.T) {
	text := `
.model consts
.inputs a
.outputs z0 z1
.names z0
.names z1
1
.end
`
	nw, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	out, err := nw.EvalOutputs(map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != false || out[1] != true {
		t.Fatalf("constants = %v, want [false true]", out)
	}
	// Round trip preserves constants.
	s, err := WriteString(nw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s)
	}
	out2, _ := back.EvalOutputs(map[string]bool{"a": false})
	if out2[0] != false || out2[1] != true {
		t.Fatalf("round-tripped constants = %v", out2)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"undefined signal", ".model m\n.inputs a\n.outputs y\n.names a b y\n11 1\n.end"},
		{"duplicate definition", ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end"},
		{"cycle", ".model m\n.inputs a\n.outputs y\n.names z y\n1 1\n.names y z\n1 1\n.end"},
		{"bad cube char", ".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end"},
		{"row outside names", ".model m\n.inputs a\n.outputs y\n11 1\n.end"},
		{"latch", ".model m\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end"},
		{"offset rows", ".model m\n.inputs a\n.outputs y\n.names a y\n1 0\n.end"},
		{"wrong arity", ".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end"},
	}
	for _, tc := range cases {
		if _, err := ParseString(tc.text); err == nil {
			t.Errorf("%s: expected parse error", tc.name)
		}
	}
}

// A line longer than the parser's 1 MiB limit is an error, not the end of
// the file: stopping there read f = ab here instead of f = ab + a'b'. A
// line above bufio's 4 KiB starting buffer still parses.
func TestLongLine(t *testing.T) {
	text := func(comment int) string {
		return ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n#" +
			strings.Repeat("x", comment) + "\n00 1\n.end\n"
	}
	if _, err := ParseCoreString(text(2 << 20)); err == nil {
		t.Fatal("a 2 MiB line parsed without error")
	}
	nw, err := ParseString(text(64 << 10))
	if err != nil {
		t.Fatalf("64 KiB line: %v", err)
	}
	out, err := nw.EvalOutputs(map[string]bool{"a": false, "b": false})
	if err != nil || !out[0] {
		t.Fatalf("f(0,0) = %v, %v; want true from the row after the long line", out, err)
	}
}

// A .names whose output is a primary input would give that signal two
// definitions; accepting it would drop the cover and read y = a here.
func TestNamesDrivingInputRejected(t *testing.T) {
	text := ".model m\n.inputs a b\n.outputs y\n.names b a\n0 1\n.names a y\n1 1\n.end"
	_, err := ParseString(text)
	want := "blif: line 4: signal a is a primary input and cannot be driven by .names"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestUnknownDirectiveIgnored(t *testing.T) {
	text := ".model m\n.default_input_arrival 0 0\n.inputs a\n.outputs y\n.names a y\n1 1\n.end"
	if _, err := ParseString(text); err != nil {
		t.Fatal(err)
	}
}

func TestWritePreservesSharedStructure(t *testing.T) {
	b := network.NewBuilder("shared")
	a := b.Input("a")
	c := b.Input("c")
	n := b.And("n", a, c)
	y1 := b.Or("y1", n, a)
	y2 := b.Or("y2", n, c)
	b.Output(y1)
	b.Output(y2)
	s, err := WriteString(b.Net)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(s, ".names a c n") != 1 {
		t.Fatalf("shared node written %d times:\n%s", strings.Count(s, ".names a c n"), s)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.GateCount() != 3 {
		t.Fatalf("gates = %d, want 3", back.GateCount())
	}
}

// layout renders everything the passes observe of nw: its name, each net
// in creation order with its fanins and cover as written, and the output
// list.
func layout(nw *network.Network) []string {
	lines := []string{".model " + nw.Name}
	for _, n := range nw.Nodes() {
		line := n.Name
		if n.Kind == network.Internal {
			for _, f := range n.Fanins {
				line += " " + f.Name
			}
			line += fmt.Sprintf(" : %d/%d %s", n.Cover.N, len(n.Cover.Cubes), n.Cover)
		}
		lines = append(lines, line)
	}
	outs := ".outputs"
	for _, o := range nw.Outputs {
		outs += " " + o.Name
	}
	return append(lines, outs)
}

// sameLayout describes the first difference between the layouts of want
// and got, or returns "" if there is none.
func sameLayout(want, got *network.Network) string {
	a, b := layout(want), layout(got)
	for i := 0; i < len(a) || i < len(b); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return fmt.Sprintf("line %d: got %q, want %q", i, y, x)
		}
	}
	return ""
}

// TestRoundTripKeepsCloneOrder writes every benchmark and parses it back:
// the result must be Clone's network net for net, so a flow that reads
// BLIF text synthesizes what the in-memory flow synthesizes.
func TestRoundTripKeepsCloneOrder(t *testing.T) {
	for _, bm := range mcnc.All() {
		src := bm.Build()
		text, err := WriteString(src)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if msg := sameLayout(src.Clone(), back); msg != "" {
			t.Errorf("%s: %s", bm.Name, msg)
		}
	}
}

// TestParseKeepsFileOrder pins that nets are created in the order the
// file defines them, not depth-first from the outputs, and that a fanin
// defined further down is created on its first use.
func TestParseKeepsFileOrder(t *testing.T) {
	for _, tc := range []struct {
		name, text string
		want       []string
	}{
		{"topological", ".model m\n.inputs a b c\n.outputs y z\n" +
			".names b c p\n11 1\n.names a b q\n11 1\n.names a q y\n11 1\n.names p c z\n1- 1\n.end",
			[]string{"a", "b", "c", "p", "q", "y", "z"}},
		{"forward reference", ".model m\n.inputs a b\n.outputs y\n" +
			".names u a y\n11 1\n.names b t u\n01 1\n.names a t\n0 1\n.end",
			[]string{"a", "b", "t", "u", "y"}},
	} {
		nw, err := ParseString(tc.text)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		for _, n := range nw.Nodes() {
			got = append(got, n.Name)
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%s: creation order %v, want %v", tc.name, got, tc.want)
		}
	}
}
