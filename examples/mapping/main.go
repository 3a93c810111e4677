// Mapping: the file-level flow — parse a BLIF netlist, optimize it,
// synthesize threshold logic, emit the .tln netlist, and read it back.
// This is what cmd/tels does, shown through the library API.
package main

import (
	"fmt"
	"log"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/opt"
	"tels/internal/sim"
)

// A small ISCAS-style fragment: a 2-bit equality detector with an enable.
const source = `
.model eq2
.inputs a0 a1 b0 b1 en
.outputs eq
.names a0 b0 x0
00 1
11 1
.names a1 b1 x1
00 1
11 1
.names x0 x1 en eq
111 1
.end
`

func main() {
	src, err := blif.ParseCoreString(source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Parsed %s: %d inputs, %d outputs, %d nodes\n",
		src.Name, len(src.Inputs()), len(src.Outputs()), src.GateCount())

	alg, err := opt.Run("algebraic", src)
	if err != nil {
		log.Fatal(err)
	}
	tn, _, err := core.Map("tels", alg, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Equivalent(src, tn, 1); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nThreshold netlist (.tln):")
	text := tn.String()
	fmt.Print(text)

	// Round-trip through the textual format.
	back, err := core.ParseTLNString(text)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Equivalent(src, back, 2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nRound trip through .tln verified against the BLIF source.")

	// And the original network re-emitted as BLIF for other tools.
	blifText, err := blif.WriteCoreString(alg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nOptimized Boolean network as BLIF:\n%s", blifText)
}
