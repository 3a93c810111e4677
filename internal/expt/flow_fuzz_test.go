package expt

import (
	"fmt"
	"strings"
	"testing"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/network"
	"tels/internal/opt"
	"tels/internal/sim"
)

// flowPipelines are the script → mapper pairs the golden gate pins: raw,
// algebraic and boolean into TELS, and boolean into the one-to-one
// baseline (§VI-A).
var flowPipelines = []struct{ script, mapper string }{
	{"none", "tels"},
	{"algebraic", "tels"},
	{"boolean", "tels"},
	{"boolean", "one2one"},
}

// flowOptions are the option sets every pipeline runs under: the paper's
// default, a tight fanin with a raised ON margin, and a weight cap that
// forces splits.
var flowOptions = []core.Options{
	{Fanin: 3, DeltaOn: 0, DeltaOff: 1},
	{Fanin: 2, DeltaOn: 1, DeltaOff: 1},
	{Fanin: 4, DeltaOn: 0, DeltaOff: 1, MaxWeight: 2},
}

// FuzzFlow runs BLIF → script → mapper → .tln on small random networks
// and referees every result: each .tln must parse back to the same text
// and be proved equivalent to the source network by sim.ProveCore, and
// the pointer-network bridges perfbench calls (blif.ParseString,
// opt.Algebraic/Boolean, core.Synthesize/OneToOne) must give the same
// bytes as the arena flow (opt.Run, core.Map).
//
// The bytes decode into a network as flowBLIF describes. The committed
// seeds under testdata/fuzz/FuzzFlow run as regular tests; run
// `go test -fuzz FuzzFlow ./internal/expt` to explore.
func FuzzFlow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFlow(t, flowBLIF(data))
	})
}

// TestFlowSmallFunctions is FuzzFlow's exhaustive companion: every
// function of at most three inputs, written as its minterm cover, through
// every pipeline under every option set.
func TestFlowSmallFunctions(t *testing.T) {
	for n := 0; n <= 3; n++ {
		for f := 0; f < 1<<(1<<n); f++ {
			checkFlow(t, functionBLIF(n, f))
		}
	}
}

// checkFlow runs text through every pipeline under every option set.
func checkFlow(t *testing.T, text string) {
	t.Helper()
	src, err := blif.ParseCoreString(text)
	if err != nil {
		t.Fatalf("generated BLIF does not parse: %v\n%s", err, text)
	}
	ptr, err := blif.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range flowPipelines {
		for _, o := range flowOptions {
			at := fmt.Sprintf("%s→%s ψ=%d δon=%d maxw=%d", p.script, p.mapper, o.Fanin, o.DeltaOn, o.MaxWeight)
			optimized, err := opt.Run(p.script, src)
			if err != nil {
				t.Fatal(err)
			}
			tn, _, err := core.Map(p.mapper, optimized, o)
			if err != nil {
				t.Fatalf("%s: %v\n%s", at, err, text)
			}
			tln := tn.String()
			if bridged, err := bridgeTLN(ptr, p.script, p.mapper, o); err != nil || bridged != tln {
				t.Fatalf("%s: pointer bridges gave %v\n%s\narena flow gave\n%s", at, err, bridged, tln)
			}
			back, err := core.ParseTLNString(tln)
			if err != nil {
				t.Fatalf("%s: .tln does not parse back: %v\n%s", at, err, tln)
			}
			if back.String() != tln {
				t.Fatalf("%s: .tln round trip changed the text\n%s\nbecame\n%s", at, tln, back)
			}
			if _, err := sim.ProveCore(src, back, 1); err != nil {
				t.Fatalf("%s: %v\n%s\n%s", at, err, text, tln)
			}
		}
	}
}

// bridgeTLN runs one pipeline through the pointer-network entry points
// perfbench/adapter.go calls, as it does, and returns the .tln text.
func bridgeTLN(src *network.Network, script, mapper string, o core.Options) (string, error) {
	var optimized *network.Network
	switch script {
	case "algebraic":
		optimized = opt.Algebraic(src)
	case "boolean":
		optimized = opt.Boolean(src)
	default:
		optimized = src.Clone()
	}
	var tn *core.Network
	var err error
	if mapper == "one2one" {
		tn, err = core.OneToOne(optimized, o)
	} else {
		tn, _, err = core.Synthesize(optimized, o)
	}
	if err != nil {
		return "", err
	}
	return tn.String(), nil
}

// flowBLIF decodes data into a small multi-output BLIF network, reading
// one byte per choice (zero once data runs out):
//   - 1..8 primary inputs x0.. and 1..12 nodes n0..;
//   - each node a cover of 0..4 cubes over 0..4 distinct earlier signals,
//     each cube position 0, 1 or -, so constants and dangling nodes occur;
//   - 1..4 distinct nodes as outputs.
func flowBLIF(data []byte) string {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	nIn, nNodes := 1+next(8), 1+next(12)
	signals := make([]string, nIn)
	for i := range signals {
		signals[i] = fmt.Sprintf("x%d", i)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, ".model fz\n.inputs %s\n", strings.Join(signals, " "))
	var body strings.Builder
	for i := 0; i < nNodes; i++ {
		k := min(next(5), len(signals))
		used := make([]bool, len(signals))
		fanins := make([]string, 0, k+1)
		for len(fanins) < k {
			j := next(len(signals))
			for used[j] {
				j = (j + 1) % len(signals)
			}
			used[j] = true
			fanins = append(fanins, signals[j])
		}
		name := fmt.Sprintf("n%d", i)
		fmt.Fprintf(&body, ".names %s\n", strings.Join(append(fanins, name), " "))
		for c := next(5); c > 0; c-- {
			row := make([]byte, k)
			for v := range row {
				row[v] = "01-"[next(3)]
			}
			if k == 0 {
				body.WriteString("1\n")
			} else {
				fmt.Fprintf(&body, "%s 1\n", row)
			}
		}
		signals = append(signals, name)
	}
	nOut := 1 + next(min(4, nNodes))
	used := make([]bool, nNodes)
	outs := make([]string, 0, nOut)
	for len(outs) < nOut {
		j := next(nNodes)
		for used[j] {
			j = (j + 1) % nNodes
		}
		used[j] = true
		outs = append(outs, fmt.Sprintf("n%d", j))
	}
	fmt.Fprintf(&sb, ".outputs %s\n%s.end\n", strings.Join(outs, " "), body.String())
	return sb.String()
}

// functionBLIF writes the n-input function whose truth table is the bits
// of f (bit m is the value on minterm m, x0 the low bit) as one node f
// over x0..x(n-1) with its minterm cover.
func functionBLIF(n, f int) string {
	var sb strings.Builder
	sb.WriteString(".model fn\n.inputs")
	var fanins strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, " x%d", i)
		fmt.Fprintf(&fanins, "x%d ", i)
	}
	fmt.Fprintf(&sb, "\n.outputs f\n.names %sf\n", fanins.String())
	for m := 0; m < 1<<n; m++ {
		if f>>m&1 == 0 {
			continue
		}
		row := make([]byte, n)
		for i := range row {
			row[i] = byte('0' + m>>i&1)
		}
		if n == 0 {
			sb.WriteString("1\n")
		} else {
			fmt.Fprintf(&sb, "%s 1\n", row)
		}
	}
	sb.WriteString(".end\n")
	return sb.String()
}
