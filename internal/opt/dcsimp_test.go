package opt

import (
	"math/rand"
	"testing"

	"tels/internal/netcore"
	"tels/internal/network"
	"tels/internal/truth"
)

// bruteDC is the referee for the don't-care sets: it simulates the whole
// network on every input minterm with the named node forced to 0 and to
// 1. A fanin pattern stays a don't-care unless some minterm produces it
// while an output is sensitive to the node — or, with sdcOnly, unless
// some minterm produces it at all.
func bruteDC(nw *network.Network, name string, sdcOnly bool) *truth.Table {
	n := nw.Node(name)
	topo, err := nw.TopoSort()
	if err != nil {
		panic(err)
	}
	values := make(map[*network.Node]bool, len(topo))
	eval := func(m int, force bool) []bool {
		for _, x := range topo {
			switch {
			case x.Kind == network.Input:
				for i, pi := range nw.Inputs {
					if pi == x {
						values[x] = m&(1<<uint(i)) != 0
					}
				}
			case x == n:
				values[x] = force
			default:
				in := make([]bool, len(x.Fanins))
				for i, f := range x.Fanins {
					in[i] = values[f]
				}
				values[x] = x.Cover.Eval(in)
			}
		}
		out := make([]bool, len(nw.Outputs))
		for i, o := range nw.Outputs {
			out[i] = values[o]
		}
		return out
	}
	dc := truth.Const(len(n.Fanins), true)
	for m := 0; m < 1<<uint(len(nw.Inputs)); m++ {
		out1 := eval(m, true)
		out0 := eval(m, false)
		pattern := 0
		for i, f := range n.Fanins {
			if values[f] {
				pattern |= 1 << uint(i)
			}
		}
		sensitive := sdcOnly
		for i := range out0 {
			sensitive = sensitive || out0[i] != out1[i]
		}
		if sensitive {
			dc.Set(pattern, false)
		}
	}
	return dc
}

// TestDCSetsMatchBruteForce walks the candidate loops of SimplifyFullCore
// and simplifySDC on random networks and checks every don't-care table
// they derive against whole-network simulation, rewriting as the passes
// do so later candidates see a partly simplified network.
func TestDCSetsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	reducedFull, reducedSDC := 0, 0
	for iter := 0; iter < 40; iter++ {
		nw := randomNetwork(rng, 4+rng.Intn(5), 4+rng.Intn(10))

		// Observability path: non-output candidates, current cones.
		cw := netcore.FromNetwork(nw)
		order, _ := cw.TopoNets()
		outputs := map[netcore.Net]bool{}
		for _, o := range cw.Outputs() {
			outputs[o] = true
		}
		for _, n := range order {
			if cw.NetKind(n) != netcore.NetFunc || outputs[n] || len(cw.NetFanins(n)) == 0 {
				continue
			}
			ref := cw.ToNetwork()
			name := cw.NetName(n)
			if got, want := fullDCSet(cw, n), bruteDC(ref, name, false); !got.Equal(want) {
				t.Fatalf("iter %d: %s full DC %v, brute force %v", iter, name, got, want)
			}
			cone := faninConeInputs(cw, n)
			if got, want := sdcSet(cw, n, cone), bruteDC(ref, name, true); !got.Equal(want) {
				t.Fatalf("iter %d: %s SDC over cone %v, brute force %v", iter, name, got, want)
			}
			if reduceWithDC(cw, n, fullDCSet(cw, n)) {
				reducedFull++
			}
		}

		// SDC-only path: outputs included, supports from before any rewrite.
		cw = netcore.FromNetwork(nw)
		order, _ = cw.TopoNets()
		support := coneSupports(cw, order)
		for _, n := range order {
			if cw.NetKind(n) != netcore.NetFunc || len(cw.NetFanins(n)) < 2 {
				continue
			}
			name := cw.NetName(n)
			got := sdcSet(cw, n, support[n])
			if want := bruteDC(cw.ToNetwork(), name, true); !got.Equal(want) {
				t.Fatalf("iter %d: %s SDC %v, brute force %v", iter, name, got, want)
			}
			if reduceWithDC(cw, n, got) {
				reducedSDC++
			}
		}
		if err := cw.Validate(); err != nil {
			t.Fatal(err)
		}
		equivalentOnAll(t, nw, cw.ToNetwork())
	}
	if reducedFull == 0 || reducedSDC == 0 {
		t.Fatalf("vacuous: %d full-DC and %d SDC reductions", reducedFull, reducedSDC)
	}
}
