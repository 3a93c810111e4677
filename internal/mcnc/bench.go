package mcnc

import (
	"fmt"
	"sort"

	"tels/internal/logic"
	"tels/internal/network"
)

// Benchmark is one recreated circuit.
type Benchmark struct {
	Name        string
	Description string
	Build       func() *network.Network
}

// registry holds all recreated benchmarks by name.
var registry = map[string]Benchmark{}

func register(name, desc string, build func() *network.Network) {
	registry[name] = Benchmark{Name: name, Description: desc, Build: build}
}

// Get returns the named benchmark.
func Get(name string) (Benchmark, bool) {
	b, ok := registry[name]
	return b, ok
}

// Names returns all benchmark names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns all benchmarks sorted by name.
func All() []Benchmark {
	names := Names()
	out := make([]Benchmark, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// TableISet returns the ten benchmarks of the paper's Table I, in the
// paper's row order.
func TableISet() []string {
	return []string{"cm152a", "cordic", "cm85a", "comp", "cmb", "term1", "pm1", "x1", "i10", "tcon"}
}

// Build constructs the named benchmark network or panics; convenience for
// tests and the experiment drivers.
func Build(name string) *network.Network {
	b, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("mcnc: unknown benchmark %q", name))
	}
	return b.Build()
}

func init() {
	// ---- The Table I set -------------------------------------------------

	register("cm152a", "8:1 multiplexer (11 in / 1 out, matching the MCNC profile)", func() *network.Network {
		b := network.NewBuilder("cm152a")
		data := inputs(b, "a", 8)
		sel := inputs(b, "s", 3)
		b.Output(mux(b, "m", sel, data))
		return b.Net
	})

	register("cordic", "two-stage CORDIC-style conditional add/sub with sign outputs (23 in / 2 out)", func() *network.Network {
		b := network.NewBuilder("cordic")
		x := inputs(b, "x", 10)
		y := inputs(b, "y", 10)
		m := inputs(b, "m", 3)
		// Stage 1: t = m0 ? x+y : x-y  (two's complement subtract via xor).
		yx := make([]*network.Node, len(y))
		for i := range y {
			yx[i] = b.Xnor(nameN("yx", i), y[i], m[0]) // m0=1 -> y, m0=0 -> !y
		}
		carry := b.Not("cin", m[0]) // +1 when subtracting
		sums, cout := rippleAdder(b, "st1", x, yx, carry)
		// Stage 2: rotate direction from the stage-1 sign; combine with the
		// remaining mode bits.
		sign := sums[len(sums)-1]
		d := b.Xor("dir", sign, m[1])
		s2 := b.Mux2("sel2", m[2], d, cout)
		b.Output(b.OutputAs("sgn", sign))
		b.Output(b.OutputAs("rot", s2))
		return b.Net
	})

	register("cm85a", "4-bit comparator with enable (9 in / 3 out)", func() *network.Network {
		b := network.NewBuilder("cm85a")
		x := inputs(b, "a", 4)
		y := inputs(b, "b", 4)
		en := b.Input("en")
		eq, gt, lt := comparator(b, "c", x, y)
		b.Output(b.And("oeq", eq, en))
		b.Output(b.And("ogt", gt, en))
		b.Output(b.And("olt", lt, en))
		return b.Net
	})

	register("comp", "16-bit magnitude comparator (32 in / 3 out, matching the MCNC profile)", func() *network.Network {
		b := network.NewBuilder("comp")
		x := inputs(b, "a", 16)
		y := inputs(b, "b", 16)
		eq, gt, lt := comparator(b, "c", x, y)
		b.Output(b.OutputAs("oeq", eq))
		b.Output(b.OutputAs("ogt", gt))
		b.Output(b.OutputAs("olt", lt))
		return b.Net
	})

	register("cmb", "address match + parity combinational block (16 in / 4 out)", func() *network.Network {
		b := network.NewBuilder("cmb")
		a := inputs(b, "a", 8)
		c := inputs(b, "c", 8)
		eq, gt, _ := comparator(b, "m", a, c)
		par := parityTree(b, "p", a)
		anyHigh := b.Or("any", append([]*network.Node{}, c...)...)
		b.Output(b.OutputAs("match", eq))
		b.Output(b.OutputAs("above", gt))
		b.Output(b.OutputAs("par", par))
		b.Output(b.OutputAs("nz", anyHigh))
		return b.Net
	})

	register("term1", "terminal controller: address match gating a data byte plus status (34 in / 10 out)", func() *network.Network {
		b := network.NewBuilder("term1")
		d := inputs(b, "d", 16)
		a := inputs(b, "a", 8)
		c := inputs(b, "c", 8)
		s := inputs(b, "s", 2)
		eq, gt, _ := comparator(b, "m", a, c)
		// Select a data byte with s0 and gate it with the address match.
		for i := 0; i < 8; i++ {
			byteSel := b.Mux2(nameN("bs", i), s[0], d[i], d[8+i])
			b.Output(b.And(nameN("q", i), byteSel, eq))
		}
		par := parityTree(b, "p", d[:8])
		b.Output(b.OutputAs("par", b.Xor("parx", par, s[1])))
		b.Output(b.OutputAs("abv", gt))
		return b.Net
	})

	register("pm1", "decoder plus parity random-logic block (16 in / 13 out)", func() *network.Network {
		b := network.NewBuilder("pm1")
		s := inputs(b, "s", 3)
		en := b.Input("en")
		d := inputs(b, "d", 8)
		p := inputs(b, "p", 4)
		for i, o := range decoder(b, "dec", s, en) {
			b.Output(b.OutputAs(nameN("z", i), o))
		}
		b.Output(b.OutputAs("par", parityTree(b, "pp", p)))
		b.Output(b.And("g0", d[0], d[1]))
		b.Output(b.Or("g1", d[2], d[3], d[4]))
		b.Output(b.Node("g2", logic.MustCover("10-", "0-1"), d[5], d[6], d[7]))
		b.Output(b.Xor("g3", d[0], d[7]))
		return b.Net
	})

	register("x1", "multi-output random logic (51 in / 35 out)", func() *network.Network {
		return randomLogic("x1", 101, 51, 35, 5, 7)
	})

	register("i10", "array of 32 conditional add/compare slices (257 in / 224 out)", func() *network.Network {
		b := network.NewBuilder("i10")
		ctrl := b.Input("ctl")
		for s := 0; s < 32; s++ {
			x := inputs(b, fmt.Sprintf("x%d_", s), 4)
			y := inputs(b, fmt.Sprintf("y%d_", s), 4)
			tag := fmt.Sprintf("sl%d", s)
			// Conditional subtract: y XOR ctl, carry-in ctl.
			yx := make([]*network.Node, 4)
			for i := range yx {
				yx[i] = b.Xor(fmt.Sprintf("%s_yx%d", tag, i), y[i], ctrl)
			}
			sums, cout := rippleAdder(b, tag+"_add", x, yx, ctrl)
			eq, gt, _ := comparator(b, tag+"_cmp", x, y)
			for i, sm := range sums {
				b.Output(b.OutputAs(fmt.Sprintf("s%d_%d", s, i), sm))
			}
			b.Output(b.OutputAs(fmt.Sprintf("co%d", s), cout))
			b.Output(b.OutputAs(fmt.Sprintf("eq%d", s), eq))
			b.Output(b.OutputAs(fmt.Sprintf("gt%d", s), gt))
		}
		return b.Net
	})

	register("tcon", "wires, inverters and xor pairs (17 in / 16 out)", func() *network.Network {
		b := network.NewBuilder("tcon")
		a := inputs(b, "a", 8)
		c := inputs(b, "c", 8)
		k := b.Input("k")
		for i := 0; i < 8; i++ {
			b.Output(b.Xor(nameN("u", i), a[i], c[i]))
		}
		for i := 0; i < 4; i++ {
			b.Output(b.Not(nameN("v", i), c[i]))
		}
		for i := 4; i < 7; i++ {
			b.Output(b.Buf(nameN("v", i), c[i]))
		}
		b.Output(b.Not("v7", k))
		return b.Net
	})

	// ---- Additional classic circuits (rest of the suite) -----------------

	register("mux4", "4:1 multiplexer", func() *network.Network {
		b := network.NewBuilder("mux4")
		data := inputs(b, "a", 4)
		sel := inputs(b, "s", 2)
		b.Output(mux(b, "m", sel, data))
		return b.Net
	})
	register("mux16", "16:1 multiplexer", func() *network.Network {
		b := network.NewBuilder("mux16")
		data := inputs(b, "a", 16)
		sel := inputs(b, "s", 4)
		b.Output(mux(b, "m", sel, data))
		return b.Net
	})
	register("comp4", "4-bit magnitude comparator", func() *network.Network {
		b := network.NewBuilder("comp4")
		x := inputs(b, "a", 4)
		y := inputs(b, "b", 4)
		eq, gt, lt := comparator(b, "c", x, y)
		b.Output(b.OutputAs("oeq", eq))
		b.Output(b.OutputAs("ogt", gt))
		b.Output(b.OutputAs("olt", lt))
		return b.Net
	})
	register("comp8", "8-bit magnitude comparator", func() *network.Network {
		b := network.NewBuilder("comp8")
		x := inputs(b, "a", 8)
		y := inputs(b, "b", 8)
		eq, gt, lt := comparator(b, "c", x, y)
		b.Output(b.OutputAs("oeq", eq))
		b.Output(b.OutputAs("ogt", gt))
		b.Output(b.OutputAs("olt", lt))
		return b.Net
	})
	register("adder4", "4-bit ripple-carry adder", func() *network.Network {
		b := network.NewBuilder("adder4")
		x := inputs(b, "a", 4)
		y := inputs(b, "b", 4)
		cin := b.Input("ci")
		sums, cout := rippleAdder(b, "add", x, y, cin)
		for i, s := range sums {
			b.Output(b.OutputAs(nameN("s", i), s))
		}
		b.Output(b.OutputAs("co", cout))
		return b.Net
	})
	register("adder8", "8-bit ripple-carry adder", func() *network.Network {
		b := network.NewBuilder("adder8")
		x := inputs(b, "a", 8)
		y := inputs(b, "b", 8)
		cin := b.Input("ci")
		sums, cout := rippleAdder(b, "add", x, y, cin)
		for i, s := range sums {
			b.Output(b.OutputAs(nameN("s", i), s))
		}
		b.Output(b.OutputAs("co", cout))
		return b.Net
	})
	register("parity8", "8-input odd parity", func() *network.Network {
		b := network.NewBuilder("parity8")
		b.Output(b.OutputAs("p", parityTree(b, "t", inputs(b, "x", 8))))
		return b.Net
	})
	register("parity16", "16-input odd parity", func() *network.Network {
		b := network.NewBuilder("parity16")
		b.Output(b.OutputAs("p", parityTree(b, "t", inputs(b, "x", 16))))
		return b.Net
	})
	register("maj5", "5-input majority as a flat SOP", func() *network.Network {
		return majorityNet("maj5", 5)
	})
	register("maj7", "7-input majority as a flat SOP", func() *network.Network {
		return majorityNet("maj7", 7)
	})
	register("dec4", "4:16 decoder with enable", func() *network.Network {
		b := network.NewBuilder("dec4")
		sel := inputs(b, "s", 4)
		en := b.Input("en")
		for i, o := range decoder(b, "d", sel, en) {
			b.Output(b.OutputAs(nameN("z", i), o))
		}
		return b.Net
	})
	register("rd53", "count the ones of 5 inputs (3-bit result)", func() *network.Network {
		b := network.NewBuilder("rd53")
		cnt := onesCount(b, "c", inputs(b, "x", 5))
		for i, o := range cnt {
			b.Output(b.OutputAs(nameN("q", i), o))
		}
		return b.Net
	})
	register("rd73", "count the ones of 7 inputs (3-bit result)", func() *network.Network {
		b := network.NewBuilder("rd73")
		cnt := onesCount(b, "c", inputs(b, "x", 7))
		for i, o := range cnt {
			b.Output(b.OutputAs(nameN("q", i), o))
		}
		return b.Net
	})
	register("9sym", "symmetric: 1 iff between 3 and 6 of 9 inputs are high", func() *network.Network {
		b := network.NewBuilder("9sym")
		cnt := onesCount(b, "c", inputs(b, "x", 9))
		// count in [3,6]: c3..c6 of a 4-bit count (0..9).
		// q = (count >= 3) AND (count <= 6).
		ge3 := b.Or("ge3",
			b.And("c4or8", cnt[2]), // weight-4 bit set -> >= 4
			b.And("c3", cnt[0], cnt[1]),
			cnt[3], // weight-8 bit -> >= 8
		)
		// count <= 6 ⟺ not(count >= 7) ⟺ !c3 ∧ !(c2 c1 c0).
		le6 := b.And("le6", b.Nand("le6a", cnt[0], cnt[1], cnt[2]), b.Not("n8", cnt[3]))
		b.Output(b.And("f", ge3, le6))
		return b.Net
	})
	register("z4ml", "2-bit x 2-bit multiply plus 2-bit add (mod 16)", func() *network.Network {
		b := network.NewBuilder("z4ml")
		a := inputs(b, "a", 2)
		c := inputs(b, "c", 2)
		e := inputs(b, "e", 2)
		// product p = a*c (4 bits).
		p0 := b.And("p0", a[0], c[0])
		m01 := b.And("m01", a[0], c[1])
		m10 := b.And("m10", a[1], c[0])
		m11 := b.And("m11", a[1], c[1])
		p1 := b.Xor("p1", m01, m10)
		g1 := b.And("g1", m01, m10)
		p2 := b.Xor("p2", m11, g1)
		p3 := b.And("p3", m11, g1)
		// sum = p + e.
		sums, cout := rippleAdder(b, "s", []*network.Node{p0, p1, p2, p3},
			[]*network.Node{e[0], e[1], zero(b, "z0"), zero(b, "z1")}, nil)
		for i, s := range sums {
			b.Output(b.OutputAs(nameN("q", i), s))
		}
		b.Output(b.OutputAs("qc", cout))
		return b.Net
	})
	register("con1", "two small control functions (7 in / 2 out)", func() *network.Network {
		b := network.NewBuilder("con1")
		x := inputs(b, "x", 7)
		f1 := b.Node("f1", logic.MustCover("1-1----", "-11----", "0-0-1--"), x[0], x[1], x[2], x[3], x[4], x[5], x[6])
		f2 := b.Node("f2", logic.MustCover("---11--", "1----11", "-0--0--"), x[0], x[1], x[2], x[3], x[4], x[5], x[6])
		b.Output(f1)
		b.Output(f2)
		return b.Net
	})
	register("xor5", "5-input parity as a flat SOP node", func() *network.Network {
		b := network.NewBuilder("xor5")
		x := inputs(b, "x", 5)
		cover := logic.NewCover(5)
		for m := 0; m < 32; m++ {
			ones := 0
			cube := logic.NewCube(5)
			for i := 0; i < 5; i++ {
				if m&(1<<uint(i)) != 0 {
					ones++
					cube[i] = logic.Pos
				} else {
					cube[i] = logic.Neg
				}
			}
			if ones%2 == 1 {
				cover.AddCube(cube)
			}
		}
		b.Output(b.Node("f", cover, x...))
		return b.Net
	})
	register("misex1", "random control logic (8 in / 7 out)", func() *network.Network {
		return randomLogic("misex1", 202, 8, 7, 4, 6)
	})
	register("b12", "random control logic (15 in / 9 out)", func() *network.Network {
		return randomLogic("b12", 303, 15, 9, 5, 6)
	})
	register("alu2s", "ALU slice: add/and/or/xor selected by 2 bits", func() *network.Network {
		b := network.NewBuilder("alu2s")
		x := inputs(b, "a", 4)
		y := inputs(b, "b", 4)
		s := inputs(b, "s", 2)
		cin := b.Input("ci")
		sums, cout := rippleAdder(b, "add", x, y, cin)
		for i := 0; i < 4; i++ {
			andB := b.And(nameN("nA", i), x[i], y[i])
			orB := b.Or(nameN("nO", i), x[i], y[i])
			xorB := b.Xor(nameN("nX", i), x[i], y[i])
			lo := b.Mux2(nameN("lo", i), s[0], andB, orB)
			hi := b.Mux2(nameN("hi", i), s[0], xorB, sums[i])
			b.Output(b.Mux2(nameN("q", i), s[1], lo, hi))
		}
		b.Output(b.And("qc", cout, s[1]))
		return b.Net
	})
	register("squar5", "low 6 bits of the square of a 5-bit input", func() *network.Network {
		b := network.NewBuilder("squar5")
		x := inputs(b, "x", 5)
		// Build via partial products p_ij = x_i x_j summed with shifts.
		cols := make([][]*network.Node, 10)
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				p := b.And(fmt.Sprintf("pp%d_%d", i, j), x[i], x[j])
				cols[i+j] = append(cols[i+j], p)
			}
		}
		serial := 0
		outBits := make([]*network.Node, 6)
		var carries []*network.Node
		for w := 0; w < 6; w++ {
			bits := append(cols[w], carries...)
			carries = nil
			for len(bits) > 2 {
				s, c := fullAdder(b, fmt.Sprintf("sq%d", serial), bits[0], bits[1], bits[2])
				serial++
				bits = append(bits[3:], s)
				carries = append(carries, c)
			}
			if len(bits) == 2 {
				s := b.Xor(fmt.Sprintf("sqs%d", serial), bits[0], bits[1])
				c := b.And(fmt.Sprintf("sqc%d", serial), bits[0], bits[1])
				serial++
				bits = []*network.Node{s}
				carries = append(carries, c)
			}
			outBits[w] = bits[0]
		}
		for i, o := range outBits {
			b.Output(b.OutputAs(nameN("q", i), o))
		}
		return b.Net
	})
	register("cm42a", "2:4 decoder pair (paper-family control circuit)", func() *network.Network {
		b := network.NewBuilder("cm42a")
		s := inputs(b, "s", 2)
		t := inputs(b, "t", 2)
		for i, o := range decoder(b, "d0", s, nil) {
			b.Output(b.OutputAs(nameN("y", i), o))
		}
		for i, o := range decoder(b, "d1", t, nil) {
			b.Output(b.OutputAs(nameN("z", i), o))
		}
		return b.Net
	})
	register("cm163a", "random logic with shared subfunctions (16 in / 5 out)", func() *network.Network {
		return randomLogic("cm163a", 404, 16, 5, 4, 6)
	})
	register("majgate", "single 3-input majority node", func() *network.Network {
		return majorityNet("majgate", 3)
	})
}

// majorityNet builds an n-input majority function as one flat SOP node.
func majorityNet(name string, n int) *network.Network {
	b := network.NewBuilder(name)
	x := inputs(b, "x", n)
	cover := logic.NewCover(n)
	// All cubes with exactly ceil(n/2)+... majority: > n/2 ones.
	need := n/2 + 1
	var rec func(start, chosen int, cube logic.Cube)
	rec = func(start, chosen int, cube logic.Cube) {
		if chosen == need {
			cover.AddCube(cube.Clone())
			return
		}
		for i := start; i < n; i++ {
			cube[i] = logic.Pos
			rec(i+1, chosen+1, cube)
			cube[i] = logic.DC
		}
	}
	rec(0, 0, logic.NewCube(n))
	b.Output(b.Node("f", cover, x...))
	return b.Net
}

func zero(b *network.Builder, name string) *network.Node {
	return b.Node(name, logic.Zero(0))
}
