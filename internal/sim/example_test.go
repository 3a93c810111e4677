package sim_test

import (
	"fmt"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/sim"
)

// ExampleProveCore synthesizes a small network and proves the threshold
// implementation equivalent with a BDD.
func ExampleProveCore() {
	src, err := blif.ParseCoreString(".model demo\n.inputs x y z\n.outputs f\n" +
		".names x y g\n11 1\n.names g z f\n1- 1\n-1 1\n.end\n")
	if err != nil {
		fmt.Println(err)
		return
	}
	tn, _, err := core.Map("tels", src, core.DefaultOptions())
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := sim.ProveCore(src, tn, 1)
	fmt.Println(res, err)
	// Output: proved <nil>
}

// ExampleProve runs the same flow through the pointer-typed names: parse,
// synthesize and prove.
func ExampleProve() {
	src, err := blif.ParseString(".model demo\n.inputs x y z\n.outputs f\n" +
		".names x y g\n11 1\n.names g z f\n1- 1\n-1 1\n.end\n")
	if err != nil {
		fmt.Println(err)
		return
	}
	tn, _, err := core.Synthesize(src, core.DefaultOptions())
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := sim.Prove(src, tn, 1)
	fmt.Println(res, err)
	// Output: proved <nil>
}
