package core_test

import (
	"fmt"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/network"
	"tels/internal/truth"
)

// ExampleSynthesize synthesizes a majority-of-three function: a single
// threshold gate replaces the whole sum-of-products network.
func ExampleSynthesize() {
	b := network.NewBuilder("majority")
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	maj := logic.MustCover("11-", "1-1", "-11") // xy + xz + yz
	b.Output(b.Node("f", maj, x, y, z))

	tn, _, err := core.Synthesize(b.Net, core.DefaultOptions())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("gates: %d\n", tn.GateCount())
	fmt.Println(tn.Gates[0])
	// Output:
	// gates: 1
	// f = [T=2] +1*x +1*y +1*z
}

// ExampleChecker_Check reproduces the paper's §V-B worked example:
// f = x1·x̄2 + x1·x̄3 has the weight–threshold vector ⟨2,−1,−1;1⟩.
func ExampleChecker_Check() {
	f := truth.Var(3, 0).And(truth.Var(3, 1).Not()).
		Or(truth.Var(3, 0).And(truth.Var(3, 2).Not()))
	var chk core.Checker
	v, ok := chk.Check(f, 0, 1, 0)
	fmt.Println(ok, v.Weights, v.T)
	// Output: true [2 -1 -1] 1
}

// ExampleTheorem2Vector shows the constructive Theorem-2 witness: given a
// vector for f, the vector for f ∨ x adds one input of weight T + δon.
func ExampleTheorem2Vector() {
	v := core.WeightVector{Weights: []int{2, 1, 1}, T: 3}
	h := core.Theorem2Vector(v, 0)
	fmt.Println(h.Weights, h.T)
	// Output: [2 1 1 3] 3
}

// ExampleOneToOne maps a small network gate-for-gate.
func ExampleOneToOne() {
	b := network.NewBuilder("pair")
	x, y := b.Input("x"), b.Input("y")
	b.Output(b.Nand("f", x, y))

	tn, err := core.OneToOne(b.Net, core.DefaultOptions())
	if err != nil {
		fmt.Println(err)
		return
	}
	s := tn.Stats()
	fmt.Printf("gates: %d, area: %d\n", s.Gates, s.Area)
	// Output: gates: 3, area: 5
}
