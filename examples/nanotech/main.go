// Nanotech: the paper's end goal — map a synthesized threshold network
// onto RTD/HFET monostable-bistable logic elements (MOBILEs, Fig. 1 of
// the paper) and report device counts and RTD area.
package main

import (
	"fmt"
	"log"

	"tels/internal/core"
	"tels/internal/mcnc"
	"tels/internal/netcore"
	"tels/internal/opt"
	"tels/internal/rtd"
	"tels/internal/sim"
)

func main() {
	src := netcore.FromNetwork(mcnc.Build("adder4"))
	alg, err := opt.Run("algebraic", src)
	if err != nil {
		log.Fatal(err)
	}
	tn, _, err := core.Map("tels", alg, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.ProveCore(src, tn, 1); err != nil {
		log.Fatal(err)
	}

	nl := rtd.Map(tn)
	s := nl.Stats()
	fmt.Printf("Circuit: %s\n", src.Name)
	fmt.Printf("Threshold network: %d LTGs, %d levels\n", tn.GateCount(), func() int {
		_, d := tn.Levels()
		return d
	}())
	fmt.Printf("MOBILE mapping:    %d elements, %d RTDs, %d HFETs, RTD area %d (Eq. 14)\n\n",
		s.Mobiles, s.RTDs, s.HFETs, s.Area)

	fmt.Println("First two elements of the netlist:")
	text, err := nl.WriteString()
	if err != nil {
		log.Fatal(err)
	}
	lines := 0
	for _, line := range splitLines(text) {
		fmt.Println(line)
		lines++
		if lines > 12 {
			fmt.Println("...")
			break
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
