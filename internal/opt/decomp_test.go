package opt

import (
	"fmt"
	"slices"
	"testing"

	"tels/internal/logic"
	"tels/internal/netcore"
	"tels/internal/network"
)

// simpleGateError reports why net n of a TechDecomp result is not a
// simple gate — AND (one all-positive cube), OR (one positive literal per
// cube), NOT, BUF or constant — with fanin ≤ k, or "" when it is one.
func simpleGateError(nw *netcore.Network, n netcore.Net, k int) string {
	fanins, cv := nw.NetFanins(n), nw.NetCover(n)
	switch {
	case len(fanins) > k:
		return fmt.Sprintf("has %d fanins, limit %d", len(fanins), k)
	case len(fanins) == 0: // constant
	case len(fanins) == 1: // buf/inv
		if len(cv.Cubes) != 1 || cv.Cubes[0][0] == logic.DC {
			return fmt.Sprintf("is not a wire: %v", cv)
		}
	case len(cv.Cubes) == 1: // AND
		for _, p := range cv.Cubes[0] {
			if p != logic.Pos {
				return fmt.Sprintf("is an AND with a non-positive literal: %v", cv)
			}
		}
	default: // OR
		for _, cb := range cv.Cubes {
			lits := 0
			for _, p := range cb {
				if p == logic.Neg {
					return fmt.Sprintf("is an OR with a negative literal: %v", cv)
				}
				if p == logic.Pos {
					lits++
				}
			}
			if lits != 1 {
				return fmt.Sprintf("is an OR with a %d-literal cube: %v", lits, cv)
			}
		}
	}
	return ""
}

func TestTechDecompBoundsFanin(t *testing.T) {
	nw := fig2a()
	for _, k := range []int{2, 3, 4} {
		dec := TechDecomp(netcore.FromNetwork(nw), k)
		for _, n := range dec.InternalNets() {
			if got := len(dec.NetFanins(n)); got > k {
				t.Fatalf("k=%d: net %s has %d fanins", k, dec.NetName(n), got)
			}
		}
		equivalentOnAll(t, nw, dec.ToNetwork())
	}
}

func TestTechDecompGatesAreSimple(t *testing.T) {
	dec := TechDecomp(netcore.FromNetwork(fig2a()), 3)
	for _, n := range dec.InternalNets() {
		if msg := simpleGateError(dec, n, 3); msg != "" {
			t.Fatalf("net %s %s", dec.NetName(n), msg)
		}
	}
}

func TestTechDecompSharesInverters(t *testing.T) {
	nw := network.New("shinv")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	c := nw.AddInput("c")
	y1 := nw.AddNode("y1", []*network.Node{a, b}, logic.MustCover("01"))
	y2 := nw.AddNode("y2", []*network.Node{a, c}, logic.MustCover("01"))
	nw.MarkOutput(y1)
	nw.MarkOutput(y2)
	dec := TechDecomp(netcore.FromNetwork(nw), 4)
	inverters := 0
	for _, n := range dec.InternalNets() {
		phases, nCubes, width := dec.NetCubes(n)
		if width == 1 && nCubes == 1 && phases[0] == logic.Neg {
			inverters++
		}
	}
	if inverters != 1 {
		t.Fatalf("inverters = %d, want 1 (shared !a)", inverters)
	}
	equivalentOnAll(t, nw, dec.ToNetwork())
}

// decodeDecompNet decodes fuzz bytes into a small netcore network: up to
// 8 inputs named a..h, up to 12 internal nets over up to 4 earlier nets
// (repeats allowed) with up to 3 cubes each, and up to 4 outputs. A net is
// named y or after an earlier net plus a suffix TechDecomp itself
// generates (a_n, y_c0_a0, ...), so generated names collide with source
// names that appear later. Missing bytes read as zero.
func decodeDecompNet(data []byte) *netcore.Network {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	suffixes := []string{"_n", "_c0_a0", "_o0", "_c1_a0"}
	nw := netcore.New("fz")
	nIn := 1 + next()%8
	for i := 0; i < nIn; i++ {
		nw.AddInput(string(rune('a' + i)))
	}
	nNets := next() % 13
	for i := 0; i < nNets; i++ {
		pool := nw.Nets()
		sel := next()
		name := "y"
		if sel%2 == 1 {
			name = nw.NetName(pool[(sel>>3)%len(pool)]) + suffixes[(sel>>1)%len(suffixes)]
		}
		fanins := make([]netcore.Net, next()%5)
		for j := range fanins {
			fanins[j] = pool[next()%len(pool)]
		}
		cv := logic.NewCover(len(fanins))
		for c := next() % 4; c > 0; c-- {
			cube := logic.NewCube(len(fanins))
			for j := range cube {
				cube[j] = logic.Phase(next() % 3)
			}
			cv.AddCube(cube)
		}
		nw.AddNode(nw.FreshName(name), fanins, cv)
	}
	pool := nw.Nets()
	for pos < len(data) && len(nw.Outputs()) < 4 {
		nw.MarkOutput(pool[next()%len(pool)])
	}
	if len(nw.Outputs()) == 0 {
		nw.MarkOutput(pool[len(pool)-1])
	}
	return nw
}

// isWire reports whether net n is one literal of phase p over one fanin.
func isWire(nw *netcore.Network, n netcore.Net, p logic.Phase) bool {
	phases, nCubes, width := nw.NetCubes(n)
	return width == 1 && nCubes == 1 && phases[0] == p
}

// netNames lists the names of nets.
func netNames(nw *netcore.Network, nets []netcore.Net) []string {
	names := make([]string, len(nets))
	for i, n := range nets {
		names[i] = nw.NetName(n)
	}
	return names
}

// FuzzTechDecomp decomposes a decoded network at fanin 2, 3 and 4 and
// checks the decomposition's contract: every gate is simple with fanin
// ≤ k, the input and output names are the source's, no output is a buffer
// of an inverter (one inverter named by the output does), and each output
// computes the source output's function over the primary inputs. The
// committed seeds under testdata/fuzz/FuzzTechDecomp run as regular
// tests; run `go test -fuzz FuzzTechDecomp ./internal/opt` to explore.
func FuzzTechDecomp(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := decodeDecompNet(data)
		want, err := src.NetLocalTTs(src.Outputs(), src.Inputs())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3, 4} {
			dec := TechDecomp(src, k)
			if err := dec.Validate(); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			for _, n := range dec.InternalNets() {
				if msg := simpleGateError(dec, n, k); msg != "" {
					t.Fatalf("k=%d: net %s %s", k, dec.NetName(n), msg)
				}
			}
			if s, d := netNames(src, src.Inputs()), netNames(dec, dec.Inputs()); !slices.Equal(s, d) {
				t.Fatalf("k=%d: inputs %v, source %v", k, d, s)
			}
			if s, d := netNames(src, src.Outputs()), netNames(dec, dec.Outputs()); !slices.Equal(s, d) {
				t.Fatalf("k=%d: outputs %v, source %v", k, d, s)
			}
			for _, o := range dec.Outputs() {
				if in := dec.NetFanins(o); len(in) == 1 && isWire(dec, o, logic.Pos) && isWire(dec, in[0], logic.Neg) {
					t.Fatalf("k=%d: output %s buffers the inverter %s", k, dec.NetName(o), dec.NetName(in[0]))
				}
			}
			got, err := dec.NetLocalTTs(dec.Outputs(), dec.Inputs())
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("k=%d: output %s computes %s, source %s",
						k, src.NetName(src.Outputs()[i]), got[i], want[i])
				}
			}
		}
	})
}
