// Quickstart: build a small Boolean network in code, synthesize a
// threshold-gate network from it, inspect the weight–threshold vectors,
// and verify functional equivalence by exhaustive simulation.
package main

import (
	"fmt"
	"log"

	"tels/internal/core"
	"tels/internal/netcore"
	"tels/internal/network"
	"tels/internal/sim"
)

func main() {
	// The paper's motivational example (Fig. 2(a)):
	//   f = (x1 x2 x3 + !x1 x4) x5 + x6 x7
	b := network.NewBuilder("fig2a")
	x := make([]*network.Node, 8)
	for i := 1; i <= 7; i++ {
		x[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	n4 := b.And("n4", x[1], x[2], x[3])
	n5 := b.And("n5", b.Not("inv", x[1]), x[4])
	n3 := b.Or("n3", n4, n5)
	n1 := b.And("n1", n3, x[5])
	n2 := b.And("n2", x[6], x[7])
	b.Output(b.Or("f", n1, n2))

	src := netcore.FromNetwork(b.Net)
	boolStats := src.Stats()
	fmt.Printf("Boolean network: %d gates, %d levels\n", boolStats.Gates, boolStats.Levels)

	// Synthesize with the paper's Fig. 2(b) setting: fanin restriction 4,
	// defect tolerances δon = 0 and δoff = 1.
	tn, stats, err := core.Map("tels", src, core.Options{Fanin: 4, DeltaOn: 0, DeltaOff: 1})
	if err != nil {
		log.Fatal(err)
	}

	s := tn.Stats()
	fmt.Printf("Threshold network: %d gates, %d levels, area %d (Eq. 14)\n", s.Gates, s.Levels, s.Area)
	fmt.Printf("Synthesis: %d ILP checks, %d collapses, %d unate + %d binate splits\n\n",
		stats.ILPCalls, stats.Collapses, stats.UnateSplits, stats.BinateSplits)

	fmt.Println("Linear threshold gates (output fires when Σ wᵢxᵢ ≥ T):")
	for _, g := range tn.Gates {
		fmt.Printf("  %s\n", g)
	}

	if err := sim.Equivalent(src, tn, 1); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Println("\nVerified: threshold network matches the Boolean network on all 128 input vectors.")
}
