package network_test

import (
	"testing"

	"tels/internal/netcore"
	"tels/internal/network"
)

// fig2a builds the paper's Fig. 2(a) network with the pointer Builder and
// carries it across the bridge to the arena, where Levels and Stats live:
//
//	n4 = x1*x2*x3, inv = !x1, n5 = inv*x4, n3 = n4 + n5,
//	n1 = n3*x5, n2 = x6*x7, f = n1 + n2.
func fig2a() *netcore.Network {
	b := network.NewBuilder("fig2a")
	x := make([]*network.Node, 8)
	for i := 1; i <= 7; i++ {
		x[i] = b.Input("x" + string(rune('0'+i)))
	}
	n4 := b.And("n4", x[1], x[2], x[3])
	n5 := b.And("n5", b.Not("inv", x[1]), x[4])
	n1 := b.And("n1", b.Or("n3", n4, n5), x[5])
	b.Output(b.Or("f", n1, b.And("n2", x[6], x[7])))
	return netcore.FromNetwork(b.Net)
}

func TestLevels(t *testing.T) {
	nw := fig2a()
	levels, depth := nw.Levels()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5 (including the inverter)", depth)
	}
	if l := levels[nw.NetByName("f")]; l != 5 {
		t.Fatalf("level(f) = %d, want 5", l)
	}
	if l := levels[nw.NetByName("inv")]; l != 1 {
		t.Fatalf("level(inv) = %d, want 1", l)
	}
}

func TestStats(t *testing.T) {
	s := fig2a().Stats()
	if s.Gates != 7 || s.Levels != 5 || s.Inputs != 7 || s.Outputs != 1 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.Literals == 0 {
		t.Fatal("Literals should be nonzero")
	}
}
