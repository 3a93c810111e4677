package netcore

import (
	"fmt"
	"math/rand"
	"testing"

	"tels/internal/logic"
	"tels/internal/network"
)

func cube(phases ...logic.Phase) logic.Cube { return logic.Cube(phases) }

func cover(n int, cubes ...logic.Cube) logic.Cover {
	cv := logic.NewCover(n)
	for _, c := range cubes {
		cv.AddCube(c)
	}
	return cv
}

func TestStrashDedupOnCreation(t *testing.T) {
	nw := New("dedup")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	and := cover(2, cube(logic.Pos, logic.Pos))
	n1 := nw.AddNode("n1", []Net{a, b}, and)
	n2 := nw.AddNode("n2", []Net{a, b}, and)
	if nw.NetHandle(n1) != nw.NetHandle(n2) {
		t.Fatalf("identical (cover, fanins) got different handles %d vs %d",
			nw.NetHandle(n1), nw.NetHandle(n2))
	}
	if nw.DedupCount() != 1 {
		t.Fatalf("DedupCount = %d, want 1", nw.DedupCount())
	}
	// Different cube order is a different shape (covers are positional).
	or2 := cover(2, cube(logic.Pos, logic.DC), cube(logic.DC, logic.Pos))
	or2r := cover(2, cube(logic.DC, logic.Pos), cube(logic.Pos, logic.DC))
	n3 := nw.AddNode("n3", []Net{a, b}, or2)
	n4 := nw.AddNode("n4", []Net{a, b}, or2r)
	if nw.NetHandle(n3) == nw.NetHandle(n4) {
		t.Fatal("covers with different cube order must not share a handle")
	}
	// Same cover over different fanins is a different shape.
	n5 := nw.AddNode("n5", []Net{b, a}, and)
	if nw.NetHandle(n5) == nw.NetHandle(n1) {
		t.Fatal("same cover over swapped fanins must not share a handle")
	}
	nw.MarkOutput(n1)
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStrashConstAndIdentityFolds(t *testing.T) {
	nw := New("folds")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	zero := nw.AddNode("z", []Net{a}, cover(1))
	if nw.NetHandle(zero) != Const0 {
		t.Fatalf("empty cover handle = %d, want Const0", nw.NetHandle(zero))
	}
	one := nw.AddNode("o", []Net{a, b}, cover(2, cube(logic.DC, logic.DC)))
	if nw.NetHandle(one) != Const1 {
		t.Fatalf("universal cover handle = %d, want Const1", nw.NetHandle(one))
	}
	buf := nw.AddNode("buf", []Net{b}, cover(1, cube(logic.Pos)))
	if nw.NetHandle(buf) != nw.NetHandle(b) {
		t.Fatalf("buffer handle = %d, want fanin handle %d", nw.NetHandle(buf), nw.NetHandle(b))
	}
	// An inverter is NOT an identity — it keeps its own node.
	inv := nw.AddNode("inv", []Net{b}, cover(1, cube(logic.Neg)))
	if nw.NetHandle(inv) == nw.NetHandle(b) {
		t.Fatal("inverter folded to its fanin")
	}
	if nw.FoldCount() != 3 {
		t.Fatalf("FoldCount = %d, want 3", nw.FoldCount())
	}
	// The net layer still reports the written covers.
	cv := nw.NetCover(buf)
	if cv.N != 1 || len(cv.Cubes) != 1 || cv.Cubes[0][0] != logic.Pos {
		t.Fatalf("buffer net cover mutated by fold: %+v", cv)
	}
}

func TestFreshNameMatchesRescan(t *testing.T) {
	nc := New("fresh")
	pw := network.New("fresh")
	a := nc.AddInput("a")
	pa := pw.AddInput("a")
	buf := cover(1, cube(logic.Pos))
	add := func(name string) {
		nc.AddNode(name, []Net{a}, buf)
		pw.AddNode(name, []*network.Node{pa}, buf)
	}
	for i := 0; i < 5; i++ {
		n := nc.FreshName("t")
		p := pw.FreshName("t")
		if n != p {
			t.Fatalf("FreshName diverged: netcore %q, network %q", n, p)
		}
		add(n)
	}
	// Open a hole: both sides must reuse it.
	hole := nc.NetByName("t_1")
	nc.ReplaceNet(hole, nc.NetByName("t_0"))
	pw.ReplaceNode(pw.Node("t_1"), pw.Node("t_0"))
	n, p := nc.FreshName("t"), pw.FreshName("t")
	if n != p || n != "t_1" {
		t.Fatalf("after removal FreshName netcore %q, network %q, want t_1", n, p)
	}
}

func TestGateCountO1AndRemoveDangling(t *testing.T) {
	nw := New("gc")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	and := cover(2, cube(logic.Pos, logic.Pos))
	n1 := nw.AddNode("n1", []Net{a, b}, and)
	n2 := nw.AddNode("n2", []Net{n1, a}, and)
	nw.AddNode("dangling", []Net{a, b}, cover(2, cube(logic.Neg, logic.Neg)))
	nw.MarkOutput(n2)
	if nw.GateCount() != 3 {
		t.Fatalf("GateCount = %d, want 3", nw.GateCount())
	}
	if removed := nw.RemoveDangling(); removed != 1 {
		t.Fatalf("RemoveDangling removed %d, want 1", removed)
	}
	if nw.GateCount() != 2 {
		t.Fatalf("GateCount after sweep = %d, want 2", nw.GateCount())
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
}

// randomNetwork builds the same random network into both representations,
// returning them for cross-checks. Permute shuffles internal creation
// order without changing the graph (inputs and node definitions stay
// identical) to exercise order-independence of handle counts.
func randomNetwork(rng *rand.Rand, nIn, nNode int, permute bool) (*Network, *network.Network) {
	type def struct {
		name   string
		fanins []int // index into the signal list
		cov    logic.Cover
	}
	signals := nIn
	defs := make([]def, 0, nNode)
	for i := 0; i < nNode; i++ {
		k := 1 + rng.Intn(3)
		if k > signals {
			k = signals
		}
		fanins := make([]int, k)
		seen := map[int]bool{}
		for j := range fanins {
			for {
				f := rng.Intn(signals)
				if !seen[f] {
					seen[f] = true
					fanins[j] = f
					break
				}
			}
		}
		nc := 1 + rng.Intn(3)
		cv := logic.NewCover(k)
		for c := 0; c < nc; c++ {
			cb := logic.NewCube(k)
			nonDC := false
			for v := 0; v < k; v++ {
				switch rng.Intn(3) {
				case 0:
					cb[v] = logic.Pos
					nonDC = true
				case 1:
					cb[v] = logic.Neg
					nonDC = true
				}
			}
			if !nonDC {
				cb[0] = logic.Pos
			}
			cv.AddCube(cb)
		}
		defs = append(defs, def{name: fmt.Sprintf("n%d", i), fanins: fanins, cov: cv})
		signals++
	}
	build := func(order []int) (*Network, *network.Network) {
		pw := network.New("rand")
		pwSig := make([]*network.Node, signals)
		for i := 0; i < nIn; i++ {
			pwSig[i] = pw.AddInput(fmt.Sprintf("x%d", i))
		}
		// Creation may be out of graph order: shells first, then bind.
		for _, di := range order {
			pwSig[nIn+di] = pw.AddShell(defs[di].name)
		}
		for di := range defs {
			d := defs[di]
			fanins := make([]*network.Node, len(d.fanins))
			for j, f := range d.fanins {
				fanins[j] = pwSig[f]
			}
			pw.BindNode(pwSig[nIn+di], fanins, d.cov)
		}
		// Outputs: the last two defined nodes.
		for i := signals - 1; i >= signals-2 && i >= nIn; i-- {
			pw.MarkOutput(pwSig[i])
		}
		return FromNetwork(pw), pw
	}
	order := make([]int, len(defs))
	for i := range order {
		order[i] = i
	}
	if permute {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return build(order)
}

func TestNetLocalTTMatchesLocalFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nc, pw := randomNetwork(rng, 4, 8, false)
		order, err := pw.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range order {
			if n.Kind != network.Internal {
				continue
			}
			support := map[*network.Node]bool{}
			for _, f := range n.Fanins {
				support[f] = true
			}
			sup := make([]*network.Node, 0, len(support))
			for _, f := range n.Fanins {
				if support[f] {
					sup = append(sup, f)
					delete(support, f)
				}
			}
			want, err := pw.LocalFunction(n, sup)
			if err != nil {
				continue
			}
			csup := make([]Net, len(sup))
			for i, f := range sup {
				csup[i] = nc.NetByName(f.Name)
			}
			got, err := nc.NetLocalTT(nc.NetByName(n.Name), csup)
			if err != nil {
				t.Fatalf("trial %d node %s: %v", trial, n.Name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d node %s: NetLocalTT != LocalFunction", trial, n.Name)
			}
		}
	}
}

func TestEvalMatchesPointerNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		nc, pw := randomNetwork(rng, 5, 10, false)
		assign := map[string]bool{}
		for _, in := range pw.Inputs {
			assign[in.Name] = rng.Intn(2) == 0
		}
		want, err := pw.Eval(assign)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nc.Eval(assign)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			if got[name] != w {
				t.Fatalf("trial %d: Eval(%s) = %v, want %v", trial, name, got[name], w)
			}
		}
	}
}

func TestRoundTripIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		// permute=true creates non-topological creation orders like
		// extraction does; the round trip must preserve them.
		_, pw := randomNetwork(rng, 4, 9, true)
		back := FromNetwork(pw).ToNetwork()
		a, b := pw.Nodes(), back.Nodes()
		if len(a) != len(b) {
			t.Fatalf("trial %d: node count %d != %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Kind != b[i].Kind {
				t.Fatalf("trial %d: creation order diverged at %d: %s/%v vs %s/%v",
					trial, i, a[i].Name, a[i].Kind, b[i].Name, b[i].Kind)
			}
			if a[i].Kind != network.Internal {
				continue
			}
			if len(a[i].Fanins) != len(b[i].Fanins) {
				t.Fatalf("trial %d node %s: fanin count differs", trial, a[i].Name)
			}
			for j := range a[i].Fanins {
				if a[i].Fanins[j].Name != b[i].Fanins[j].Name {
					t.Fatalf("trial %d node %s: fanin %d differs", trial, a[i].Name, j)
				}
			}
			if a[i].Cover.String() != b[i].Cover.String() {
				t.Fatalf("trial %d node %s: cover differs", trial, a[i].Name)
			}
		}
		if len(pw.Outputs) != len(back.Outputs) {
			t.Fatalf("trial %d: output count differs", trial)
		}
		for i := range pw.Outputs {
			if pw.Outputs[i].Name != back.Outputs[i].Name {
				t.Fatalf("trial %d: output %d differs", trial, i)
			}
		}
	}
}

func TestTopoNetsMatchesTopoSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 25; trial++ {
		nc, pw := randomNetwork(rng, 4, 9, true)
		want, err := pw.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		got, err := nc.TopoNets()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: topo length %d != %d", trial, len(got), len(want))
		}
		for i := range want {
			if nc.NetName(got[i]) != want[i].Name {
				t.Fatalf("trial %d: topo order diverged at %d: %s vs %s",
					trial, i, nc.NetName(got[i]), want[i].Name)
			}
		}
	}
}

func TestSetFunctionRehash(t *testing.T) {
	nw := New("rehash")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	and := cover(2, cube(logic.Pos, logic.Pos))
	or := cover(2, cube(logic.Pos, logic.DC), cube(logic.DC, logic.Pos))
	n1 := nw.AddNode("n1", []Net{a, b}, and)
	n2 := nw.AddNode("n2", []Net{a, b}, or)
	nw.MarkOutput(n1)
	nw.MarkOutput(n2)
	h1 := nw.NetHandle(n1)
	nw.SetFunction(n2, []Net{a, b}, and)
	if got := nw.NetHandle(n2); got != h1 {
		t.Fatalf("after SetFunction to identical shape, handle = %d, want %d", got, h1)
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	vals, err := nw.Eval(map[string]bool{"a": true, "b": false})
	if err != nil {
		t.Fatal(err)
	}
	if vals["n2"] != false {
		t.Fatal("n2 should now be AND(a,b) = false")
	}
}

// handleShape renders the structural cone of h — input ordinals, covers
// and fanins — independent of handle numbering.
func handleShape(nw *Network, h Handle) string {
	nd := &nw.nodes[h]
	switch nd.kind {
	case kindConst:
		return fmt.Sprintf("c%d", h)
	case kindInput:
		return fmt.Sprintf("i%d", nd.input)
	}
	phases, _, _ := nw.nodeCover(h)
	s := fmt.Sprintf("f%v(", phases)
	for _, f := range nw.HandleFanins(h) {
		s += handleShape(nw, f) + " "
	}
	return s + ")"
}

func TestAddNodeAfterSetFunction(t *testing.T) {
	nw := New("stale")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	n1 := nw.AddNode("n1", []Net{a, b}, cover(2, cube(logic.Pos, logic.Pos)))
	nw.MarkOutput(n1)
	nw.SetFunction(n1, []Net{a, b}, cover(2, cube(logic.Pos, logic.DC), cube(logic.DC, logic.Neg)))
	n2 := nw.AddNode("n2", []Net{n1, a}, cover(2, cube(logic.Pos, logic.Neg)))
	nw.MarkOutput(n2)
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	rebuilt := FromNetwork(nw.ToNetwork())
	for _, name := range []string{"n1", "n2"} {
		got := handleShape(nw, nw.NetHandle(nw.NetByName(name)))
		want := handleShape(rebuilt, rebuilt.NetHandle(rebuilt.NetByName(name)))
		if got != want {
			t.Fatalf("%s: handle %s, rebuilt %s", name, got, want)
		}
	}
}
