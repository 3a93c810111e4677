// Defects: the paper's §VI-C experiment on one circuit — synthesize with
// growing defect tolerance δon, disturb every weight by v·U(−0.5, 0.5),
// and measure how often the circuit still computes correctly. Larger δon
// buys robustness at the cost of area (Figs. 11 and 12).
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
	src := netcore.FromNetwork(mcnc.Build("cm85a")) // 4-bit comparator with enable
	alg, err := opt.Run("algebraic", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Circuit: %s (%d inputs, %d outputs)\n\n", src.Name, len(src.Inputs()), len(src.Outputs()))

	vs := []float64{0.0, 0.4, 0.8, 1.2, 1.6, 2.0}
	fmt.Printf("%5s |", "v")
	for don := 0; don <= 3; don++ {
		fmt.Printf("  δon=%d |", don)
	}
	fmt.Printf(" %s\n", "(failure rate; area in header below)")

	areas := make([]int, 4)
	pairs := make([]sim.Pair, 4)
	for don := 0; don <= 3; don++ {
		tn, _, err := core.Map("tels", alg, core.Options{Fanin: 3, DeltaOn: don, DeltaOff: 1})
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.Equivalent(src, tn, 1); err != nil {
			log.Fatalf("δon=%d: %v", don, err)
		}
		areas[don] = tn.Area()
		pairs[don] = sim.Pair{Name: src.Name, Bool: src, Threshold: tn}
	}
	fmt.Printf("%5s |", "area")
	for don := 0; don <= 3; don++ {
		fmt.Printf(" %6d |", areas[don])
	}
	fmt.Println()
	fmt.Println("-------" + "+--------+--------+--------+--------+")

	for _, v := range vs {
		fmt.Printf("%5.1f |", v)
		for don := 0; don <= 3; don++ {
			rate, err := sim.FailureRate([]sim.Pair{pairs[don]}, v,
				sim.FailureRateConfig{Trials: 30, Seed: 42})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %5.0f%% |", 100*rate)
		}
		fmt.Println()
	}
	fmt.Println("\nRead across a row: higher δon tolerates more weight variation.")
	fmt.Println("Read the area line: the robustness is paid for in RTD area (Eq. 14).")
}
