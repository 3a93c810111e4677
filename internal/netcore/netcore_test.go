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
		if n != "t_1" {
			nc.MarkOutput(nc.NetByName(n))
			pw.MarkOutput(pw.Node(n))
		}
	}
	// Open a hole: t_1 is the only net without a fanout, and both sides
	// must reuse its name.
	if rc, rp := nc.RemoveDangling(), pw.RemoveDangling(); rc != 1 || rp != 1 {
		t.Fatalf("RemoveDangling removed netcore %d, network %d, want 1", rc, rp)
	}
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
// identical), giving the non-topological creation orders extraction
// leaves behind.
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

func TestRoundTripIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		// permute=true creates non-topological creation orders like
		// extraction does; the round trip must preserve them.
		_, pw := randomNetwork(rng, 4, 9, true)
		if msg := sameNetwork(pw, FromNetwork(pw).ToNetwork()); msg != "" {
			t.Fatalf("trial %d: %s", trial, msg)
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

// TestSetFunctionRehash checks that SetFunction replaces the net's fanins
// and cover in place: reference counts move to the new fanins and the new
// function reaches the net's fanouts.
func TestSetFunctionRehash(t *testing.T) {
	nw := New("setfn")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	and := cover(2, cube(logic.Pos, logic.Pos))
	or := cover(2, cube(logic.Pos, logic.DC), cube(logic.DC, logic.Pos))
	n1 := nw.AddNode("n1", []Net{a, b}, and)
	n2 := nw.AddNode("n2", []Net{a, b}, or)
	inv := nw.AddNode("inv", []Net{n2}, cover(1, cube(logic.Neg)))
	nand := nw.AddNode("nand", []Net{a, b}, cover(2, cube(logic.Neg, logic.DC), cube(logic.DC, logic.Neg)))
	nw.MarkOutput(n1)
	nw.MarkOutput(inv)
	nw.MarkOutput(nand)
	same := func(x, y Net) bool {
		t.Helper()
		tx, err := nw.NetLocalTT(x, []Net{a, b})
		if err != nil {
			t.Fatal(err)
		}
		ty, err := nw.NetLocalTT(y, []Net{a, b})
		if err != nil {
			t.Fatal(err)
		}
		return tx.Equal(ty)
	}

	nw.SetFunction(n2, []Net{a, b}, and)
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if !same(n2, n1) {
		t.Fatal("n2 after SetFunction does not compute AND(a,b)")
	}
	if !same(inv, nand) {
		t.Fatal("inv over the replaced n2 does not compute NAND(a,b)")
	}

	// A new fanin list moves the references: a and b lose n2's positions,
	// n1 gains one.
	nw.SetFunction(n2, []Net{n1}, cover(1, cube(logic.Neg)))
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := nw.NetFanoutCount(a); got != 2 {
		t.Fatalf("NetFanoutCount(a) = %d, want 2", got)
	}
	if got := nw.NetFanoutCount(n1); got != 2 {
		t.Fatalf("NetFanoutCount(n1) = %d, want 2", got)
	}
	if !same(inv, n1) {
		t.Fatal("inv = NOT NOT n1 does not compute AND(a,b)")
	}
}

// TestAddNodeAfterSetFunction creates a net over a net whose function was
// just replaced; the new net must read the replaced function and the
// network must survive a round trip unchanged.
func TestAddNodeAfterSetFunction(t *testing.T) {
	nw := New("setadd")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	n1 := nw.AddNode("n1", []Net{a, b}, cover(2, cube(logic.Pos, logic.Pos)))
	nw.MarkOutput(n1)
	set := cover(2, cube(logic.Pos, logic.DC), cube(logic.DC, logic.Neg))
	nw.SetFunction(n1, []Net{a, b}, set)
	added := cover(2, cube(logic.Pos, logic.Neg))
	n2 := nw.AddNode("n2", []Net{n1, a}, added)
	nw.MarkOutput(n2)
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := nw.NetCover(n1).String(); got != set.String() {
		t.Fatalf("n1 cover = %s, want %s", got, set)
	}
	if got := nw.NetCover(n2).String(); got != added.String() {
		t.Fatalf("n2 cover = %s, want %s", got, added)
	}
	if f := nw.NetFanins(n2); len(f) != 2 || f[0] != n1 || f[1] != a {
		t.Fatalf("n2 fanins = %v, want [n1 a]", f)
	}
	if msg := sameNetwork(nw.ToNetwork(), FromNetwork(nw.ToNetwork()).ToNetwork()); msg != "" {
		t.Fatal(msg)
	}
}

// sameNetwork compares two pointer networks on everything the passes
// observe — creation order, names, kinds, fanin order, covers as written
// and the output list — and describes the first difference ("" if none).
func sameNetwork(want, got *network.Network) string {
	a, b := want.Nodes(), got.Nodes()
	if len(a) != len(b) {
		return fmt.Sprintf("node count %d, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Kind != b[i].Kind {
			return fmt.Sprintf("creation order diverged at %d: %s/%v, want %s/%v",
				i, b[i].Name, b[i].Kind, a[i].Name, a[i].Kind)
		}
		if a[i].Kind != network.Internal {
			continue
		}
		if len(a[i].Fanins) != len(b[i].Fanins) {
			return fmt.Sprintf("node %s: %d fanins, want %d", a[i].Name, len(b[i].Fanins), len(a[i].Fanins))
		}
		for j := range a[i].Fanins {
			if a[i].Fanins[j].Name != b[i].Fanins[j].Name {
				return fmt.Sprintf("node %s: fanin %d is %s, want %s",
					a[i].Name, j, b[i].Fanins[j].Name, a[i].Fanins[j].Name)
			}
		}
		ca, cb := a[i].Cover, b[i].Cover
		if ca.N != cb.N || len(ca.Cubes) != len(cb.Cubes) || ca.String() != cb.String() {
			return fmt.Sprintf("node %s: cover %d/%q, want %d/%q", a[i].Name, cb.N, cb, ca.N, ca)
		}
	}
	if len(want.Outputs) != len(got.Outputs) {
		return fmt.Sprintf("%d outputs, want %d", len(got.Outputs), len(want.Outputs))
	}
	for i := range want.Outputs {
		if want.Outputs[i].Name != got.Outputs[i].Name {
			return fmt.Sprintf("output %d is %s, want %s", i, got.Outputs[i].Name, want.Outputs[i].Name)
		}
	}
	return ""
}

// sameNets compares two arena networks net for net: live nets in creation
// order with their names, kinds, fanins and covers, then the output list.
// It returns "" when they agree.
func sameNets(want, got *Network) string {
	a, b := want.Nets(), got.Nets()
	if len(a) != len(b) {
		return fmt.Sprintf("net count %d, want %d", len(b), len(a))
	}
	for i := range a {
		wn, gn := want.NetName(a[i]), got.NetName(b[i])
		if wn != gn || want.NetKind(a[i]) != got.NetKind(b[i]) {
			return fmt.Sprintf("creation order diverged at %d: %s/%d, want %s/%d",
				i, gn, got.NetKind(b[i]), wn, want.NetKind(a[i]))
		}
		wf, gf := want.NetFanins(a[i]), got.NetFanins(b[i])
		if len(wf) != len(gf) {
			return fmt.Sprintf("net %s: %d fanins, want %d", wn, len(gf), len(wf))
		}
		for j := range wf {
			if want.NetName(wf[j]) != got.NetName(gf[j]) {
				return fmt.Sprintf("net %s: fanin %d is %s, want %s", wn, j, got.NetName(gf[j]), want.NetName(wf[j]))
			}
		}
		if wc, gc := want.NetCover(a[i]), got.NetCover(b[i]); wc.N != gc.N || wc.String() != gc.String() {
			return fmt.Sprintf("net %s: cover %q, want %q", wn, gc, wc)
		}
	}
	wo, goo := want.Outputs(), got.Outputs()
	if len(wo) != len(goo) {
		return fmt.Sprintf("%d outputs, want %d", len(goo), len(wo))
	}
	for i := range wo {
		if want.NetName(wo[i]) != got.NetName(goo[i]) {
			return fmt.Sprintf("output %d is %s, want %s", i, got.NetName(goo[i]), want.NetName(wo[i]))
		}
	}
	return ""
}

// TestStatsAndLevels pins Stats and Levels on the paper's Fig. 2(a)
// network: seven gates, depth five counting the inverter.
func TestStatsAndLevels(t *testing.T) {
	nw := New("fig2a")
	x := make([]Net, 8)
	for i := 1; i <= 7; i++ {
		x[i] = nw.AddInput(fmt.Sprintf("x%d", i))
	}
	and2 := cover(2, cube(logic.Pos, logic.Pos))
	or2 := cover(2, cube(logic.Pos, logic.DC), cube(logic.DC, logic.Pos))
	n4 := nw.AddNode("n4", []Net{x[1], x[2], x[3]}, cover(3, cube(logic.Pos, logic.Pos, logic.Pos)))
	inv := nw.AddNode("inv", []Net{x[1]}, cover(1, cube(logic.Neg)))
	n5 := nw.AddNode("n5", []Net{inv, x[4]}, and2)
	n3 := nw.AddNode("n3", []Net{n4, n5}, or2)
	n1 := nw.AddNode("n1", []Net{n3, x[5]}, and2)
	n2 := nw.AddNode("n2", []Net{x[6], x[7]}, and2)
	f := nw.AddNode("f", []Net{n1, n2}, or2)
	nw.MarkOutput(f)
	levels, depth := nw.Levels()
	if depth != 5 || levels[f] != 5 || levels[inv] != 1 || levels[x[1]] != 0 {
		t.Fatalf("depth %d, level(f) %d, level(inv) %d, level(x1) %d; want 5, 5, 1, 0",
			depth, levels[f], levels[inv], levels[x[1]])
	}
	want := Stats{Inputs: 7, Outputs: 1, Gates: 7, Levels: 5, Literals: 14}
	if s := nw.Stats(); s != want {
		t.Fatalf("Stats = %+v, want %+v", s, want)
	}
}

// TestEvalWordsWideSupport runs the cone walk over more support nets than
// a truth table can hold: a 40-input parity chain on random three-word
// rows, checked lane by lane. A row of the wrong length is refused.
func TestEvalWordsWideSupport(t *testing.T) {
	const n, words = 40, 3
	rng := rand.New(rand.NewSource(5))
	nw := New("parity")
	xor := cover(2, cube(logic.Pos, logic.Neg), cube(logic.Neg, logic.Pos))
	support := make([]Net, n)
	rows := make([][]uint64, n)
	for i := range support {
		support[i] = nw.AddInput(fmt.Sprintf("x%d", i))
		rows[i] = []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
	acc := support[0]
	for i := 1; i < n; i++ {
		acc = nw.AddNode(fmt.Sprintf("p%d", i), []Net{acc, support[i]}, xor)
	}
	nw.MarkOutput(acc)
	got, err := nw.EvalWords([]Net{acc}, support, rows, words)
	if err != nil {
		t.Fatal(err)
	}
	for wi := 0; wi < words; wi++ {
		var want uint64
		for _, row := range rows {
			want ^= row[wi]
		}
		if got[0][wi] != want {
			t.Fatalf("word %d: %#x, want %#x", wi, got[0][wi], want)
		}
	}
	rows[7] = rows[7][:2]
	if _, err := nw.EvalWords([]Net{acc}, support, rows, words); err == nil {
		t.Fatal("a two-word row in a three-word walk was accepted")
	}
}
