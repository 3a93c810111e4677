package opt

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tels/internal/algebra"
	"tels/internal/logic"
	"tels/internal/mcnc"
	"tels/internal/netcore"
	"tels/internal/network"
)

// runCore pushes nw through one arena pass (FromNetwork → pass →
// ToNetwork) and returns the converted network with the pass's count.
// Signal names survive the round trip, so tests look nodes up by name.
func runCore(nw *network.Network, pass func(*netcore.Network) int) (*network.Network, int) {
	cw := netcore.FromNetwork(nw)
	n := pass(cw)
	return cw.ToNetwork(), n
}

// faninNames lists a node's fanin names in order.
func faninNames(n *network.Node) []string {
	names := make([]string, len(n.Fanins))
	for i, f := range n.Fanins {
		names[i] = f.Name
	}
	return names
}

// equivalentOnAll checks two networks with identical input/output names
// agree on every input vector (inputs ≤ 16) or a random sample otherwise.
func equivalentOnAll(t *testing.T, a, b *network.Network) {
	t.Helper()
	if len(a.Inputs) != len(b.Inputs) {
		t.Fatalf("input counts differ: %d vs %d", len(a.Inputs), len(b.Inputs))
	}
	if len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("output counts differ: %d vs %d", len(a.Outputs), len(b.Outputs))
	}
	n := len(a.Inputs)
	vectors := 1 << uint(n)
	exhaustive := n <= 14
	if !exhaustive {
		vectors = 2000
	}
	rng := rand.New(rand.NewSource(7))
	for v := 0; v < vectors; v++ {
		in := make(map[string]bool, n)
		for i, node := range a.Inputs {
			if exhaustive {
				in[node.Name] = v&(1<<uint(i)) != 0
			} else {
				in[node.Name] = rng.Intn(2) == 1
			}
		}
		av, err := a.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := b.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("networks differ on vector %d output %s: %v vs %v",
					v, a.Outputs[i].Name, av[i], bv[i])
			}
		}
	}
}

// fig2a builds the paper's motivational network.
func fig2a() *network.Network {
	b := network.NewBuilder("fig2a")
	var x [8]*network.Node
	for i := 1; i <= 7; i++ {
		x[i] = b.Input("x" + string(rune('0'+i)))
	}
	n4 := b.And("n4", x[1], x[2], x[3])
	inv := b.Not("inv", x[1])
	n5 := b.And("n5", inv, x[4])
	n3 := b.Or("n3", n4, n5)
	n1 := b.And("n1", n3, x[5])
	n2 := b.And("n2", x[6], x[7])
	f := b.Or("f", n1, n2)
	b.Output(f)
	return b.Net
}

func TestSweepBuffersAndConstants(t *testing.T) {
	b := network.NewBuilder("sw")
	a := b.Input("a")
	c := b.Input("c")
	buf := b.Buf("buf", a)
	inv := b.Not("inv", c)
	one := b.Net.AddNode("one", nil, logic.One(0))
	g := b.And("g", buf, inv, one)
	y := b.Or("y", g, buf)
	b.Output(y)
	ref := b.Net.Clone()

	out, removed := runCore(b.Net, SweepCore)
	if out.Node("buf") != nil || out.Node("inv") != nil || out.Node("one") != nil {
		t.Fatalf("sweep left wires/constants: buf=%v inv=%v one=%v",
			out.Node("buf") != nil, out.Node("inv") != nil, out.Node("one") != nil)
	}
	if removed != 3 {
		t.Fatalf("SweepCore returned %d, want 3 (buf, inv, one)", removed)
	}
	equivalentOnAll(t, ref, out)
}

func TestSweepConstantZeroFanin(t *testing.T) {
	b := network.NewBuilder("sw0")
	a := b.Input("a")
	zero := b.Net.AddNode("zero", nil, logic.Zero(0))
	y := b.Or("y", a, zero)
	b.Output(y)
	ref := b.Net.Clone()
	out, _ := runCore(b.Net, SweepCore)
	if out.Node("zero") != nil {
		t.Fatal("constant 0 not swept")
	}
	equivalentOnAll(t, ref, out)
}

func TestSweepDuplicateFanins(t *testing.T) {
	nw := network.New("dup")
	a := nw.AddInput("a")
	c := nw.AddInput("c")
	// y = a*a*c + a*!a  -> a*c
	y := nw.AddNode("y", []*network.Node{a, a, c, a}, logic.MustCover("11-0", "1-1-"))
	nw.MarkOutput(y)
	out, _ := runCore(nw, SweepCore)
	if got := len(out.Node("y").Fanins); got != 2 {
		t.Fatalf("fanins = %d, want 2", got)
	}
	vals, _ := out.EvalOutputs(map[string]bool{"a": true, "c": true})
	if !vals[0] {
		t.Fatal("y(1,1) should be 1")
	}
	vals, _ = out.EvalOutputs(map[string]bool{"a": true, "c": false})
	if vals[0] {
		t.Fatal("y(1,0) should be 0")
	}
}

func TestSimplifyNodes(t *testing.T) {
	nw := network.New("simp")
	a := nw.AddInput("a")
	c := nw.AddInput("c")
	// y = a*c + a*!c + a  -> a, dropping fanin c.
	y := nw.AddNode("y", []*network.Node{a, c}, logic.MustCover("11", "10", "1-"))
	nw.MarkOutput(y)
	ref := nw.Clone()
	out, _ := runCore(nw, SimplifyNodesCore)
	if got := faninNames(out.Node("y")); len(got) != 1 || got[0] != a.Name {
		t.Fatalf("y fanins = %v", got)
	}
	equivalentOnAll(t, ref, out)
}

func TestSimplifyConstantNode(t *testing.T) {
	nw := network.New("simpc")
	a := nw.AddInput("a")
	// y = a + !a = 1.
	y := nw.AddNode("y", []*network.Node{a}, logic.MustCover("1", "0"))
	nw.MarkOutput(y)
	out, _ := runCore(nw, SimplifyNodesCore)
	y = out.Node("y")
	if len(y.Fanins) != 0 || !y.Cover.HasUniverse() {
		t.Fatalf("y not reduced to constant 1: fanins=%v cover=%v", y.Fanins, y.Cover)
	}
}

func TestEliminate(t *testing.T) {
	nw := fig2a()
	ref := nw.Clone()
	out, n := runCore(nw, func(cw *netcore.Network) int { return EliminateCore(cw, 0) })
	if n == 0 {
		t.Fatal("expected at least one elimination in fig2a")
	}
	equivalentOnAll(t, ref, out)
}

// TestSimplifyAfterEliminateIsFixedPoint pins why the scripts run no
// SimplifyNodesCore right after an EliminateCore that follows one: every
// net EliminateCore rewrites is already the minimal cover of its
// support-projected table, so the simplify step changes nothing. It runs
// on every corpus benchmark and on random networks, at each threshold the
// scripts use plus -1.
func TestSimplifyAfterEliminateIsFixedPoint(t *testing.T) {
	check := func(name string, nw *network.Network) {
		t.Helper()
		for _, k := range []int{-1, 0, 2, 25} {
			cw := netcore.FromNetwork(nw)
			SweepCore(cw)
			SimplifyNodesCore(cw)
			EliminateCore(cw, k)
			if n := SimplifyNodesCore(cw); n != 0 {
				t.Fatalf("%s: simplify after eliminate(%d) changed %d nets", name, k, n)
			}
		}
	}
	for _, bm := range mcnc.All() {
		check(bm.Name, bm.Build())
	}
	rng := rand.New(rand.NewSource(38))
	for iter := 0; iter < 1000; iter++ {
		check(fmt.Sprintf("random %d", iter), randomNetwork(rng, 1+rng.Intn(8), 1+rng.Intn(20)))
	}
}

func TestExtractSharedKernel(t *testing.T) {
	// Two nodes sharing divisor (c+d): y1 = a(c+d), y2 = b(c+d) + e.
	nw := network.New("ext")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	c := nw.AddInput("c")
	d := nw.AddInput("d")
	e := nw.AddInput("e")
	y1 := nw.AddNode("y1", []*network.Node{a, c, d}, logic.MustCover("11-", "1-1"))
	y2 := nw.AddNode("y2", []*network.Node{b, c, d, e}, logic.MustCover("11--", "1-1-", "---1"))
	nw.MarkOutput(y1)
	nw.MarkOutput(y2)
	out, got := runCore(nw, ExtractCore)
	if got == 0 {
		t.Fatal("expected extraction of the shared kernel c+d")
	}
	equivalentOnAll(t, nw, out)
	// The divisor must be shared: some new node fans out to both y1 and y2.
	shared := false
	for n, c := range out.FanoutCounts() {
		shared = shared || (n.Kind == network.Internal && c > 1)
	}
	if !shared {
		t.Fatal("no shared node created")
	}
}

func TestExtractPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 30; iter++ {
		nw := randomNetwork(rng, 6, 8)
		out, _ := runCore(nw, ExtractCore)
		equivalentOnAll(t, nw, out)
		if err := netcore.FromNetwork(out).Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func randomNetwork(rng *rand.Rand, inputs, gates int) *network.Network {
	nw := network.New("rand")
	var signals []*network.Node
	for i := 0; i < inputs; i++ {
		signals = append(signals, nw.AddInput("in"+string(rune('a'+i))))
	}
	for g := 0; g < gates; g++ {
		k := min(2+rng.Intn(3), len(signals))
		fanins := make([]*network.Node, 0, k)
		used := map[*network.Node]bool{}
		for len(fanins) < k {
			s := signals[rng.Intn(len(signals))]
			if !used[s] {
				used[s] = true
				fanins = append(fanins, s)
			}
		}
		cover := logic.NewCover(k)
		cubes := 1 + rng.Intn(3)
		for c := 0; c < cubes; c++ {
			cube := logic.NewCube(k)
			nonDC := false
			for j := 0; j < k; j++ {
				switch rng.Intn(3) {
				case 0:
					cube[j] = logic.Pos
					nonDC = true
				case 1:
					cube[j] = logic.Neg
					nonDC = true
				}
			}
			if nonDC {
				cover.AddCube(cube)
			}
		}
		if cover.IsZero() {
			cover.AddCube(func() logic.Cube {
				cb := logic.NewCube(k)
				cb[0] = logic.Pos
				return cb
			}())
		}
		n := nw.AddNode(nw.FreshName("g"), fanins, cover)
		signals = append(signals, n)
	}
	// Mark the last few gates as outputs.
	outs := 0
	for i := len(signals) - 1; i >= 0 && outs < 3; i-- {
		if signals[i].Kind == network.Internal {
			nw.MarkOutput(signals[i])
			outs++
		}
	}
	nw.RemoveDangling()
	return nw
}

func TestDecomposeLarge(t *testing.T) {
	nw := network.New("big")
	var ins []*network.Node
	for i := 0; i < 9; i++ {
		ins = append(ins, nw.AddInput("i"+string(rune('0'+i))))
	}
	// Wide node: 9-input function with three 3-literal cubes and phases.
	y := nw.AddNode("y", ins, logic.MustCover("111------", "---00----", "------1-1"))
	nw.MarkOutput(y)
	// Single-literal cubes of both phases on one fanin: the final OR
	// sees that fanin twice and must merge the columns.
	z := nw.AddNode("z", ins, logic.MustCover("1--------", "0--------", "-1111111-"))
	nw.MarkOutput(z)
	// A universal cube after a wide one: the node folds to constant 1.
	u := nw.AddNode("u", ins, logic.MustCover("11111111-", "---------"))
	nw.MarkOutput(u)
	checkDecomposeLarge(t, nw, 4)

	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 40; iter++ {
		checkDecomposeLarge(t, randomWideNetwork(rng), 2+rng.Intn(4))
	}
}

// checkDecomposeLarge runs DecomposeLargeCore and checks the fanin bound,
// that every split node's root has distinct fanins, the arena's
// consistency and the network function.
func checkDecomposeLarge(t *testing.T, nw *network.Network, k int) {
	t.Helper()
	cw := netcore.FromNetwork(nw)
	DecomposeLargeCore(cw, k)
	if err := cw.Validate(); err != nil {
		t.Fatal(err)
	}
	out := cw.ToNetwork()
	for _, n := range out.Nodes() {
		if len(n.Fanins) > k {
			t.Fatalf("k=%d: node %s still has %d fanins", k, n.Name, len(n.Fanins))
		}
	}
	for _, n := range nw.Nodes() {
		if len(n.Fanins) <= k {
			continue
		}
		seen := map[string]bool{}
		for _, f := range faninNames(out.Node(n.Name)) {
			if seen[f] {
				t.Fatalf("k=%d: split node %s keeps duplicate fanin %s", k, n.Name, f)
			}
			seen[f] = true
		}
	}
	equivalentOnAll(t, nw, out)
}

// randomWideNetwork builds one to three nodes of 5..10 fanins over eight
// inputs. Fanin lists may repeat an input; covers mix wide cubes with
// single-literal cubes and, now and then, a universal cube.
func randomWideNetwork(rng *rand.Rand) *network.Network {
	nw := network.New("wide")
	var ins []*network.Node
	for i := 0; i < 8; i++ {
		ins = append(ins, nw.AddInput(nameOf(i)))
	}
	for g := 0; g < 1+rng.Intn(3); g++ {
		k := 5 + rng.Intn(6)
		fanins := make([]*network.Node, k)
		for i := range fanins {
			fanins[i] = ins[rng.Intn(len(ins))]
		}
		cover := logic.NewCover(k)
		for c := 0; c < 1+rng.Intn(5); c++ {
			cube := logic.NewCube(k)
			switch rng.Intn(8) {
			case 0: // universal
			case 1, 2: // single literal
				cube[rng.Intn(k)] = logic.Phase(rng.Intn(2))
			default:
				for i := range cube {
					if rng.Intn(3) != 0 {
						cube[i] = logic.Phase(rng.Intn(2))
					}
				}
			}
			cover.AddCube(cube)
		}
		nw.MarkOutput(nw.AddNode(nw.FreshName("w"), fanins, cover))
	}
	return nw
}

func TestScriptsPreserveFunction(t *testing.T) {
	nw := fig2a()
	alg := Algebraic(nw)
	equivalentOnAll(t, nw, alg)
	if err := netcore.FromNetwork(alg).Validate(); err != nil {
		t.Fatal(err)
	}
	boo := Boolean(nw)
	equivalentOnAll(t, nw, boo)
	if err := netcore.FromNetwork(boo).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScriptsOnRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 15; iter++ {
		nw := randomNetwork(rng, 7, 10)
		alg := Algebraic(nw)
		equivalentOnAll(t, nw, alg)
		boo := Boolean(nw)
		equivalentOnAll(t, nw, boo)
	}
	// Fewer inputs than a gate's widest fanin draw.
	nw := randomNetwork(rng, 3, 10)
	equivalentOnAll(t, nw, Algebraic(nw))
	equivalentOnAll(t, nw, Boolean(nw))
}

func TestAlgebraicReducesLiterals(t *testing.T) {
	// A network with obvious shared structure should shrink.
	nw := network.New("shrink")
	var ins []*network.Node
	for i := 0; i < 6; i++ {
		ins = append(ins, nw.AddInput("x"+string(rune('0'+i))))
	}
	// y1 = x0x2 + x0x3 + x1x2 + x1x3 (= (x0+x1)(x2+x3))
	y1 := nw.AddNode("y1", ins[:4], logic.MustCover("1-1-", "1--1", "-11-", "-1-1"))
	// y2 = x4(x2+x3) shares the kernel x2+x3.
	y2 := nw.AddNode("y2", []*network.Node{ins[2], ins[3], ins[4]}, logic.MustCover("1-1", "-11"))
	nw.MarkOutput(y1)
	nw.MarkOutput(y2)
	alg := Algebraic(nw)
	before := netcore.FromNetwork(nw).Stats().Literals
	after := netcore.FromNetwork(alg).Stats().Literals
	if after >= before {
		t.Fatalf("literals %d -> %d, expected reduction", before, after)
	}
	equivalentOnAll(t, nw, alg)
}

func TestSimplifyWideNode(t *testing.T) {
	// A 14-fanin node (the widest the truth-table route takes) with an
	// absorbable cube pair must shrink and drop the fanin it stops using.
	nw := network.New("wide")
	var ins []*network.Node
	for i := 0; i < 14; i++ {
		ins = append(ins, nw.AddInput("i"+string(rune('a'+i))))
	}
	// y = x0 x1 + x0 x1 !x13 + x2...x12 chain cube (irredundant filler).
	cover := logic.MustCover(
		"11------------",
		"11-----------0",
		"--11111111111-",
	)
	y := nw.AddNode("y", ins, cover)
	nw.MarkOutput(y)
	ref := nw.Clone()
	out, changed := runCore(nw, SimplifyNodesCore)
	if changed == 0 {
		t.Fatal("wide node not simplified")
	}
	y = out.Node("y")
	if got := len(y.Cover.Cubes); got != 2 {
		t.Fatalf("cover has %d cubes, want 2", got)
	}
	if len(y.Fanins) != 13 {
		t.Fatalf("fanins = %d, want 13 (x13 dropped)", len(y.Fanins))
	}
	equivalentOnAll(t, ref, out)
}

func TestSimplifyKeepsNodeAboveCeiling(t *testing.T) {
	// One fanin past SimplifyMaxVars the net keeps its cover and fanins,
	// even with a cube pair the truth-table route would absorb.
	width := SimplifyMaxVars + 1
	nw := network.New("wider")
	var ins []*network.Node
	for i := 0; i < width; i++ {
		ins = append(ins, nw.AddInput(fmt.Sprintf("x%d", i)))
	}
	ab := "11" + strings.Repeat("-", width-2)
	cover := logic.MustCover(ab, ab[:width-1]+"0", "--"+strings.Repeat("1", width-3)+"-")
	y := nw.AddNode("y", ins, cover)
	nw.MarkOutput(y)
	ref := nw.Clone()
	out, changed := runCore(nw, SimplifyNodesCore)
	if changed != 0 {
		t.Fatalf("%d nets changed, want 0", changed)
	}
	y = out.Node("y")
	if got := faninNames(y); !slices.Equal(got, faninNames(ref.Node("y"))) {
		t.Fatalf("fanins = %v, want them unchanged", got)
	}
	if got := y.Cover.String(); got != cover.String() {
		t.Fatalf("cover = %s, want %s", got, cover)
	}
	equivalentOnAll(t, ref, out)
}

func TestResubReusesExistingNode(t *testing.T) {
	// d = c + e exists; y = a*c + a*e can be rewritten as y = a*d.
	nw := network.New("rs")
	a := nw.AddInput("a")
	c := nw.AddInput("c")
	e := nw.AddInput("e")
	d := nw.AddNode("d", []*network.Node{c, e}, logic.MustCover("1-", "-1"))
	y := nw.AddNode("y", []*network.Node{a, c, e}, logic.MustCover("11-", "1-1"))
	nw.MarkOutput(d)
	nw.MarkOutput(y)
	ref := nw.Clone()
	out, n := runCore(nw, ResubCore)
	if n == 0 {
		t.Fatal("expected a resubstitution")
	}
	usesD := false
	for _, f := range faninNames(out.Node("y")) {
		if f == d.Name {
			usesD = true
		}
	}
	if !usesD {
		t.Fatalf("y does not reuse d: fanins %v", faninNames(out.Node("y")))
	}
	equivalentOnAll(t, ref, out)
}

func TestResubMergesDuplicates(t *testing.T) {
	nw := network.New("dup2")
	a := nw.AddInput("a")
	c := nw.AddInput("c")
	d1 := nw.AddNode("d1", []*network.Node{a, c}, logic.MustCover("1-", "-1"))
	d2 := nw.AddNode("d2", []*network.Node{a, c}, logic.MustCover("1-", "-1"))
	nw.MarkOutput(d1)
	nw.MarkOutput(d2)
	ref := nw.Clone()
	out, _ := runCore(nw, ResubCore)
	// d2 should now be a single-cube function of d1 (a buffer), which
	// SweepCore cannot remove because it is an output — but its cover
	// must reference d1.
	if got := faninNames(out.Node(d2.Name)); len(got) != 1 || got[0] != d1.Name {
		t.Fatalf("duplicate not merged: fanins %v", got)
	}
	equivalentOnAll(t, ref, out)
}

func TestResubPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 25; iter++ {
		nw := randomNetwork(rng, 6, 9)
		ref := nw.Clone()
		out, _ := runCore(nw, ResubCore)
		equivalentOnAll(t, ref, out)
		if err := netcore.FromNetwork(out).Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestResubNoCycles(t *testing.T) {
	// A chain where later nodes could divide earlier ones must never
	// create a cycle.
	nw := network.New("chain")
	a := nw.AddInput("a")
	c := nw.AddInput("c")
	e := nw.AddInput("e")
	n1 := nw.AddNode("n1", []*network.Node{a, c}, logic.MustCover("1-", "-1"))
	n2 := nw.AddNode("n2", []*network.Node{n1, e}, logic.MustCover("11"))
	n3 := nw.AddNode("n3", []*network.Node{a, c, e}, logic.MustCover("1-1", "-11"))
	nw.MarkOutput(n2)
	nw.MarkOutput(n3)
	out, _ := runCore(nw, ResubCore)
	if err := netcore.FromNetwork(out).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLitSetSubset checks the resub and extract support filter against a
// map of literals, across word boundaries and set offsets.
func TestLitSetSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	// randExpr draws literals below 300, mostly from pool when it is
	// given, so subsets are common.
	randExpr := func(pool []algebra.Lit) algebra.Expr {
		var e algebra.Expr
		for c := rng.Intn(5); c > 0; c-- {
			var cube algebra.Cube
			for l := 1 + rng.Intn(3); l > 0; l-- {
				lit := algebra.Lit(rng.Intn(300))
				if len(pool) > 0 && rng.Intn(8) != 0 {
					lit = pool[rng.Intn(len(pool))]
				}
				cube = append(cube, lit)
			}
			e = append(e, cube)
		}
		return e
	}
	for iter := 0; iter < 2000; iter++ {
		u := randExpr(nil)
		var pool []algebra.Lit
		in := make(map[algebra.Lit]bool)
		for _, c := range u {
			for _, l := range c {
				in[l] = true
				pool = append(pool, l)
			}
		}
		s := randExpr(pool)
		want := true
		for _, c := range s {
			for _, l := range c {
				want = want && in[l]
			}
		}
		if got := litsOf(s).subsetOf(litsOf(u)); got != want {
			t.Fatalf("lits of %v ⊆ lits of %v = %v, want %v", s, u, got, want)
		}
	}
}

// sdcOnly pads nw with unused inputs up to one more than dcMaxConeInputs,
// so SimplifyFullCore takes it through its satisfiability-only branch.
func sdcOnly(nw *network.Network) *network.Network {
	for i := len(nw.Inputs); i <= dcMaxConeInputs; i++ {
		nw.AddInput(fmt.Sprintf("pad%d", i))
	}
	return nw
}

func TestSimplifyDCUnreachablePatterns(t *testing.T) {
	// f AND-combines x and its inverter's output through separate nodes:
	// the fanin patterns (0,0) and (1,1) are unreachable, so
	// f = a*!b over (p, q) with p = x, q = !x can simplify to a literal.
	nw := network.New("sdc")
	x := nw.AddInput("x")
	e := nw.AddInput("e")
	p := nw.AddNode("p", []*network.Node{x}, logic.MustCover("1"))
	q := nw.AddNode("q", []*network.Node{x}, logic.MustCover("0"))
	f := nw.AddNode("f", []*network.Node{p, q}, logic.MustCover("10"))
	y := nw.AddNode("y", []*network.Node{f, e}, logic.MustCover("11"))
	nw.MarkOutput(p) // keep p and q alive as outputs
	nw.MarkOutput(q)
	nw.MarkOutput(y)
	sdcOnly(nw)
	out, n := runCore(nw, SimplifyFullCore)
	if n == 0 {
		t.Fatal("expected a DC simplification")
	}
	if f := out.Node(f.Name); f.Cover.LiteralCount() > 1 {
		t.Fatalf("f not simplified: %v over %d fanins", f.Cover, len(f.Fanins))
	}
	equivalentOnAll(t, nw, out)
}

func TestSimplifyDCPreservesNetworkFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 30; iter++ {
		nw := sdcOnly(randomNetwork(rng, 6, 10))
		out, _ := runCore(nw, SimplifyFullCore)
		equivalentOnAll(t, nw, out)
		if err := netcore.FromNetwork(out).Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestSimplifyDCOnBenchmarkShapes(t *testing.T) {
	// The comparator's eq-chain has correlated fanins; the SDC pass must
	// keep the function intact (improvement is circuit-dependent).
	nw := sdcOnly(fig2a())
	out, _ := runCore(nw, SimplifyFullCore)
	equivalentOnAll(t, nw, out)
}

func TestSimplifyFullObservability(t *testing.T) {
	// y = (a ∨ b) ∧ a: whenever a=0 the output ignores n = a ∨ b, so n's
	// patterns with a=0 are observability don't-cares and n collapses to
	// the constant 1 (y then sweeps to a buffer of a).
	nw := network.New("odc")
	a := nw.AddInput("a")
	b := nw.AddInput("b")
	n := nw.AddNode("n", []*network.Node{a, b}, logic.MustCover("1-", "-1"))
	y := nw.AddNode("y", []*network.Node{n, a}, logic.MustCover("11"))
	nw.MarkOutput(y)
	out, c := runCore(nw, SimplifyFullCore)
	if c == 0 {
		t.Fatal("expected an ODC simplification")
	}
	equivalentOnAll(t, nw, out)
	if n := out.Node(n.Name); len(n.Fanins) != 0 || !n.Cover.HasUniverse() {
		t.Fatalf("n not reduced to constant 1: %v over %d fanins", n.Cover, len(n.Fanins))
	}
}

func TestSimplifyFullPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for iter := 0; iter < 25; iter++ {
		nw := randomNetwork(rng, 6, 9)
		out, _ := runCore(nw, SimplifyFullCore)
		equivalentOnAll(t, nw, out)
		if err := netcore.FromNetwork(out).Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestSimplifyFullFallsBackOnWideNetworks(t *testing.T) {
	// 20 inputs exceeds the ODC enumeration limit; the pass must fall
	// back to the SDC-only path without error.
	nw := network.New("widepi")
	var ins []*network.Node
	for i := 0; i < 20; i++ {
		ins = append(ins, nw.AddInput(nameOf(i)))
	}
	n1 := nw.AddNode("n1", ins[:3], logic.MustCover("11-", "--1"))
	y := nw.AddNode("y", []*network.Node{n1, ins[4]}, logic.MustCover("1-", "-1"))
	nw.MarkOutput(y)
	out, _ := runCore(nw, SimplifyFullCore)
	equivalentOnAll(t, nw, out)
}

func nameOf(i int) string { return "pi" + string(rune('a'+i)) }
