package opt

import (
	"math/rand"
	"slices"
	"testing"

	"tels/internal/logic"
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

// TestDCSetsMatchBruteForce walks SimplifyFullCore's candidate loop on
// random networks and checks every don't-care table it derives against
// whole-network simulation: the full set, and the satisfiability set over
// the cone supports taken before any rewrite. It rewrites as the pass does,
// so later candidates see a partly simplified network.
func TestDCSetsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	reduced := 0
	for iter := 0; iter < 40; iter++ {
		nw := randomNetwork(rng, 4+rng.Intn(5), 4+rng.Intn(10))
		cw := netcore.FromNetwork(nw)
		order, _ := cw.TopoNets()
		support := coneSupports(cw, order)
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
			if got, want := sdcSet(cw, n, support[n]), bruteDC(ref, name, true); !got.Equal(want) {
				t.Fatalf("iter %d: %s SDC over %v: %v, brute force %v", iter, name, support[n], got, want)
			}
			if reduceWithDC(cw, n, fullDCSet(cw, n)) {
				reduced++
			}
		}
		if err := cw.Validate(); err != nil {
			t.Fatal(err)
		}
		equivalentOnAll(t, nw, cw.ToNetwork())
	}
	if reduced == 0 {
		t.Fatal("vacuous: no full-DC reduction")
	}
}

// TestSimplifyFullLargeNetworkSDCOnly puts n = a ∨ b under y = n ∧ a,
// where n's patterns with a = 0 are observability don't-cares but every
// pattern is reachable. In a small network the pass collapses n; beside
// enough filler gates to pass odcMaxNetworkNodes it uses satisfiability
// don't-cares only and leaves n as it is. Both keep the network function.
func TestSimplifyFullLargeNetworkSDCOnly(t *testing.T) {
	for _, filler := range []int{0, odcMaxNetworkNodes} {
		nw := network.New("odc")
		a := nw.AddInput("a")
		b := nw.AddInput("b")
		c := nw.AddInput("c")
		n := nw.AddNode("n", []*network.Node{a, b}, logic.MustCover("1-", "-1"))
		nw.MarkOutput(nw.AddNode("y", []*network.Node{n, a}, logic.MustCover("11")))
		for i := 0; i < filler; i++ {
			nw.MarkOutput(nw.AddNode(nw.FreshName("w"), []*network.Node{b, c}, logic.MustCover("11")))
		}
		large := nw.GateCount() > odcMaxNetworkNodes
		out, changed := runCore(nw, SimplifyFullCore)
		equivalentOnAll(t, nw, out)
		got := out.Node(n.Name)
		kept := changed == 0 && slices.Equal(faninNames(got), faninNames(n)) &&
			got.Cover.String() == n.Cover.String()
		if kept != large {
			t.Fatalf("%d gates: %d nets changed, n = %v over %v", nw.GateCount(), changed, got.Cover, faninNames(got))
		}
	}
}
