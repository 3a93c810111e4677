// Comparator: reproduce the paper's flow on the comp benchmark family —
// optimize the Boolean network with the algebraic and Boolean scripts,
// map it one-to-one and with TELS, and sweep the fanin restriction to see
// the Fig. 10 effect: relaxing ψ shrinks the one-to-one mapping rapidly
// while TELS stays nearly flat.
package main

import (
	"fmt"
	"log"

	"tels/internal/core"
	"tels/internal/mcnc"
	"tels/internal/netcore"
	"tels/internal/opt"
	"tels/internal/sim"
)

func main() {
	src := netcore.FromNetwork(mcnc.Build("comp8")) // 8-bit magnitude comparator
	fmt.Printf("Source: %s — %d inputs, %d outputs, %d nodes\n\n",
		src.Name, len(src.Inputs()), len(src.Outputs()), src.GateCount())

	boolNet, err := opt.Run("boolean", src)
	if err != nil {
		log.Fatal(err)
	}
	algNet, err := opt.Run("algebraic", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("script.boolean:   %d nodes, %d literals\n",
		boolNet.GateCount(), boolNet.Stats().Literals)
	fmt.Printf("script.algebraic: %d nodes, %d literals\n\n",
		algNet.GateCount(), algNet.Stats().Literals)

	fmt.Printf("%6s | %18s | %18s\n", "ψ", "one-to-one (gates)", "TELS (gates)")
	fmt.Println("-------+--------------------+-------------------")
	for psi := 3; psi <= 8; psi++ {
		o := core.Options{Fanin: psi, DeltaOn: 0, DeltaOff: 1}
		oneToOne, _, err := core.Map("one2one", boolNet, o)
		if err != nil {
			log.Fatal(err)
		}
		tels, _, err := core.Map("tels", algNet, o)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.Equivalent(src, tels, 1); err != nil {
			log.Fatalf("ψ=%d: %v", psi, err)
		}
		fmt.Printf("%6d | %18d | %18d\n", psi, oneToOne.GateCount(), tels.GateCount())
	}
	fmt.Println("\nAll TELS networks verified against the source comparator.")
}
