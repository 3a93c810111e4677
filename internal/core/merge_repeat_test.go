package core_test

import (
	"slices"
	"testing"

	"tels/internal/bdd"
	"tels/internal/core"
)

// TestMergeOutputRepeatsEarlierGate: the output gate y repeats the
// earlier non-output gate n1, and r reads n1 in between. The one-pass
// merge keeps n1 in place under the name y; the fixed-point oracle keeps
// y and re-sorts it in front of r. Both leave the same gates and outputs,
// and both are proved equivalent to the unmerged network with BDDs.
func TestMergeOutputRepeatsEarlierGate(t *testing.T) {
	const src = `.tnet repeat
.inputs a b c
.outputs u r y
.gate n1 = [T=2] +1*a +1*b
.gate u = [T=1] +1*c
.gate r = [T=1] +1*n1 +1*c
.gate y = [T=2] +1*a +1*b
.end
`
	parse := func() *core.Network {
		tn, err := core.ParseTLNString(src)
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	orig, got, want := parse(), parse(), parse()
	if n := core.MergeDuplicates(got); n != 1 {
		t.Fatalf("merged %d gates, want 1", n)
	}
	if n := core.MergeDuplicatesRounds(want); n != 1 {
		t.Fatalf("oracle merged %d gates, want 1", n)
	}
	if got.GateCount() != want.GateCount() || !slices.Equal(got.Outputs, want.Outputs) {
		t.Fatalf("one pass\n%s\noracle\n%s", got, want)
	}
	if first := got.Gates[0]; first.Name != "y" || got.Gate("n1") != nil {
		t.Fatalf("n1 did not keep its place under the name y:\n%s", got)
	}
	if in := got.Gate("r").Inputs[0]; in != "y" {
		t.Fatalf("r reads %s, want y", in)
	}

	m := bdd.New(len(orig.Inputs), 0)
	level := map[string]int{}
	for i, in := range orig.Inputs {
		level[in] = i
	}
	ref, err := bdd.CompileThreshold(m, orig, level)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []*core.Network{got, want} {
		if err := tn.Validate(); err != nil {
			t.Fatal(err)
		}
		outs, err := bdd.CompileThreshold(m, tn, level)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(outs, ref) {
			t.Fatalf("not equivalent to the unmerged network:\n%s", tn)
		}
	}
}
