package blif

import (
	"strings"
	"testing"
)

// FuzzParse checks that the BLIF parser never panics and that anything it
// accepts survives a write/re-parse round trip as Clone's network: same
// nets in the same order, with the same fanins, covers and outputs. Run
// with `go test -fuzz FuzzParse ./internal/blif` to explore; the seeds
// below run as regular tests.
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
		".model m\n.inputs a b\n.outputs y t\n.names t a y\n11 1\n.names b t\n0 1\n.end",
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
		if msg := sameLayout(nw.Clone(), back); msg != "" {
			t.Fatalf("round trip is not Clone: %s\n%s", msg, text)
		}
	})
}
