package blif

import (
	"strings"
	"testing"
)

// FuzzParse checks that the BLIF parser never panics and that anything it
// accepts survives a write/re-parse round trip with identical structure
// counts. Run with `go test -fuzz FuzzParse ./internal/blif` to explore;
// the seeds below run as regular tests.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end",
		".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n0- 1\n.end",
		".model\n.inputs\n.outputs\n.end",
		".names y\n",
		".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end",
		".model m\n.inputs a \\\nb\n.outputs y\n.names a b y\n-1 1\n.end",
		".model m\n.inputs a\n.outputs a\n.end",
		strings.Repeat(".inputs x\n", 5),
		".model m\n.latch a b re c 0\n.end",
		"# only a comment",
		".model m\n.inputs a\n.outputs y\n.names y\n1\n.end",
		".model m\n.inputs a b\n.outputs y\n.names b a\n0 1\n.names a y\n1 1\n.end",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		nw, err := ParseString(input)
		if err != nil {
			return
		}
		text, err := WriteString(nw)
		if err != nil {
			t.Fatalf("accepted network failed to serialize: %v", err)
		}
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("serialized network failed to re-parse: %v\n%s", err, text)
		}
		if back.GateCount() != nw.GateCount() ||
			len(back.Inputs) != len(nw.Inputs) ||
			len(back.Outputs) != len(nw.Outputs) {
			t.Fatalf("round trip changed shape: %d/%d/%d -> %d/%d/%d",
				nw.GateCount(), len(nw.Inputs), len(nw.Outputs),
				back.GateCount(), len(back.Inputs), len(back.Outputs))
		}
	})
}
