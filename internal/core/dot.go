package core

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteDot renders the threshold network in Graphviz dot format: inputs
// as plain nodes, gates as records showing their weights and threshold,
// edges labelled with the input weight.
func WriteDot(w io.Writer, tn *Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", tn.Name)
	fmt.Fprintln(bw, "  rankdir=LR;")
	fmt.Fprintln(bw, "  node [fontname=\"Helvetica\"];")
	for _, in := range tn.Inputs {
		fmt.Fprintf(bw, "  %q [shape=circle];\n", in)
	}
	outputs := make(map[string]bool, len(tn.Outputs))
	for _, o := range tn.Outputs {
		outputs[o] = true
	}
	for _, g := range tn.Gates {
		shape := "box"
		if outputs[g.Name] {
			shape = "doubleoctagon"
		}
		fmt.Fprintf(bw, "  %q [shape=%s,label=\"%s\\nT=%d\"];\n",
			g.Name, shape, dotEscape(g.Name), g.T)
		for i, in := range g.Inputs {
			fmt.Fprintf(bw, "  %q -> %q [label=\"%d\"];\n", in, g.Name, g.Weights[i])
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

func dotEscape(s string) string {
	return strings.NewReplacer("\"", "\\\"", "\\", "\\\\").Replace(s)
}
