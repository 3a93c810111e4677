package mcnc

import (
	"math/rand"
	"testing"

	"tels/internal/netcore"
	"tels/internal/network"
)

func TestRegistryComplete(t *testing.T) {
	if len(Names()) < 25 {
		t.Fatalf("only %d benchmarks registered, want ≥ 25", len(Names()))
	}
	for _, name := range TableISet() {
		if _, ok := Get(name); !ok {
			t.Errorf("Table I benchmark %s missing", name)
		}
	}
	if _, ok := Get("no-such-bench"); ok {
		t.Error("Get should fail for unknown names")
	}
}

func TestAllBenchmarksValidate(t *testing.T) {
	for _, bm := range All() {
		nw := bm.Build()
		if err := netcore.FromNetwork(nw).Validate(); err != nil {
			t.Errorf("%s: %v", bm.Name, err)
		}
		if nw.Name != bm.Name {
			t.Errorf("%s: network named %q", bm.Name, nw.Name)
		}
	}
}

func TestBuildersAreDeterministic(t *testing.T) {
	for _, name := range []string{"x1", "misex1", "cm163a", "comp"} {
		a, _ := blifLike(Build(name))
		b, _ := blifLike(Build(name))
		if a != b {
			t.Errorf("%s: two builds differ", name)
		}
	}
}

func blifLike(nw *network.Network) (string, error) {
	s := ""
	order, err := nw.TopoSort()
	if err != nil {
		return "", err
	}
	for _, n := range order {
		s += n.Name + ":"
		for _, f := range n.Fanins {
			s += f.Name + ","
		}
		s += n.Cover.String() + ";"
	}
	return s, nil
}

func TestIOProfiles(t *testing.T) {
	cases := []struct {
		name     string
		ins, out int
	}{
		{"cm152a", 11, 1},
		{"cordic", 23, 2},
		{"cm85a", 9, 3},
		{"comp", 32, 3},
		{"cmb", 16, 4},
		{"term1", 34, 10},
		{"pm1", 16, 13},
		{"x1", 51, 35},
		{"i10", 257, 224},
		{"tcon", 17, 16},
	}
	for _, tc := range cases {
		nw := Build(tc.name)
		if got := len(nw.Inputs); got != tc.ins {
			t.Errorf("%s: %d inputs, want %d", tc.name, got, tc.ins)
		}
		if got := len(nw.Outputs); got != tc.out {
			t.Errorf("%s: %d outputs, want %d", tc.name, got, tc.out)
		}
	}
}

func evalInt(t *testing.T, nw *network.Network, in map[string]bool) []bool {
	t.Helper()
	out, err := nw.EvalOutputs(in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMuxBehaviour(t *testing.T) {
	nw := Build("cm152a")
	for sel := 0; sel < 8; sel++ {
		for val := 0; val < 2; val++ {
			in := map[string]bool{}
			for i := 0; i < 8; i++ {
				in[nameN("a", i)] = false
			}
			in[nameN("a", sel)] = val == 1
			for i := 0; i < 3; i++ {
				in[nameN("s", i)] = sel&(1<<uint(i)) != 0
			}
			out := evalInt(t, nw, in)
			if out[0] != (val == 1) {
				t.Fatalf("mux sel=%d val=%d gives %v", sel, val, out[0])
			}
		}
	}
}

func TestComparatorBehaviour(t *testing.T) {
	nw := Build("comp4")
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		a := rng.Intn(16)
		c := rng.Intn(16)
		in := map[string]bool{}
		for i := 0; i < 4; i++ {
			in[nameN("a", i)] = a&(1<<uint(i)) != 0
			in[nameN("b", i)] = c&(1<<uint(i)) != 0
		}
		out := evalInt(t, nw, in) // oeq, ogt, olt
		if out[0] != (a == c) || out[1] != (a > c) || out[2] != (a < c) {
			t.Fatalf("comp4(%d,%d) = %v", a, c, out)
		}
	}
}

func TestAdderBehaviour(t *testing.T) {
	nw := Build("adder8")
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		a := rng.Intn(256)
		c := rng.Intn(256)
		ci := rng.Intn(2)
		in := map[string]bool{"ci": ci == 1}
		for i := 0; i < 8; i++ {
			in[nameN("a", i)] = a&(1<<uint(i)) != 0
			in[nameN("b", i)] = c&(1<<uint(i)) != 0
		}
		out := evalInt(t, nw, in)
		sum := a + c + ci
		for i := 0; i < 8; i++ {
			if out[i] != (sum&(1<<uint(i)) != 0) {
				t.Fatalf("adder8(%d,%d,%d): bit %d wrong", a, c, ci, i)
			}
		}
		if out[8] != (sum >= 256) {
			t.Fatalf("adder8(%d,%d,%d): carry wrong", a, c, ci)
		}
	}
}

func TestParityBehaviour(t *testing.T) {
	nw := Build("parity8")
	for m := 0; m < 256; m++ {
		in := map[string]bool{}
		ones := 0
		for i := 0; i < 8; i++ {
			v := m&(1<<uint(i)) != 0
			in[nameN("x", i)] = v
			if v {
				ones++
			}
		}
		out := evalInt(t, nw, in)
		if out[0] != (ones%2 == 1) {
			t.Fatalf("parity8(%08b) = %v", m, out[0])
		}
	}
}

func TestOnesCountBehaviour(t *testing.T) {
	nw := Build("rd73")
	for m := 0; m < 128; m++ {
		in := map[string]bool{}
		ones := 0
		for i := 0; i < 7; i++ {
			v := m&(1<<uint(i)) != 0
			in[nameN("x", i)] = v
			if v {
				ones++
			}
		}
		out := evalInt(t, nw, in)
		got := 0
		for i, v := range out {
			if v {
				got |= 1 << uint(i)
			}
		}
		if got != ones {
			t.Fatalf("rd73(%07b) = %d, want %d", m, got, ones)
		}
	}
}

func TestNineSymBehaviour(t *testing.T) {
	nw := Build("9sym")
	for m := 0; m < 512; m++ {
		in := map[string]bool{}
		ones := 0
		for i := 0; i < 9; i++ {
			v := m&(1<<uint(i)) != 0
			in[nameN("x", i)] = v
			if v {
				ones++
			}
		}
		out := evalInt(t, nw, in)
		want := ones >= 3 && ones <= 6
		if out[0] != want {
			t.Fatalf("9sym with %d ones = %v, want %v", ones, out[0], want)
		}
	}
}

func TestMajorityBehaviour(t *testing.T) {
	nw := Build("maj5")
	for m := 0; m < 32; m++ {
		in := map[string]bool{}
		ones := 0
		for i := 0; i < 5; i++ {
			v := m&(1<<uint(i)) != 0
			in[nameN("x", i)] = v
			if v {
				ones++
			}
		}
		out := evalInt(t, nw, in)
		if out[0] != (ones >= 3) {
			t.Fatalf("maj5(%05b) = %v", m, out[0])
		}
	}
}

func TestXor5Behaviour(t *testing.T) {
	nw := Build("xor5")
	for m := 0; m < 32; m++ {
		in := map[string]bool{}
		ones := 0
		for i := 0; i < 5; i++ {
			v := m&(1<<uint(i)) != 0
			in[nameN("x", i)] = v
			if v {
				ones++
			}
		}
		out := evalInt(t, nw, in)
		if out[0] != (ones%2 == 1) {
			t.Fatalf("xor5(%05b) = %v", m, out[0])
		}
	}
}

func TestTconShape(t *testing.T) {
	nw := Build("tcon")
	in := map[string]bool{"k": true}
	for i := 0; i < 8; i++ {
		in[nameN("a", i)] = i%2 == 0
		in[nameN("c", i)] = false
	}
	out := evalInt(t, nw, in)
	// u_i = a_i XOR c_i = a_i here.
	for i := 0; i < 8; i++ {
		if out[i] != (i%2 == 0) {
			t.Fatalf("tcon u%d = %v", i, out[i])
		}
	}
	// v0..v3 = !c_i = true; v4..v6 = c_i = false; v7 = !k = false.
	for i := 8; i < 12; i++ {
		if !out[i] {
			t.Fatalf("tcon v%d should be 1", i-8)
		}
	}
	for i := 12; i < 15; i++ {
		if out[i] {
			t.Fatalf("tcon v%d should be 0", i-8)
		}
	}
	if out[15] {
		t.Fatal("tcon v7 should be 0")
	}
}

func TestI10Slices(t *testing.T) {
	nw := Build("i10")
	if nw.GateCount() < 800 {
		t.Fatalf("i10 has only %d gates; expected a large circuit", nw.GateCount())
	}
	// Check slice 0 arithmetic on a few vectors: ctl=0 -> x+y.
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		in := map[string]bool{"ctl": false}
		want := map[string]bool{}
		for s := 0; s < 32; s++ {
			x := rng.Intn(16)
			y := rng.Intn(16)
			for i := 0; i < 4; i++ {
				in[nameN(nameN("x", s)+"_", i)] = x&(1<<uint(i)) != 0
				in[nameN(nameN("y", s)+"_", i)] = y&(1<<uint(i)) != 0
			}
			sum := x + y
			for i := 0; i < 4; i++ {
				want[nameN(nameN("s", s)+"_", i)] = sum&(1<<uint(i)) != 0
			}
			want[nameN("co", s)] = sum >= 16
			want[nameN("eq", s)] = x == y
			want[nameN("gt", s)] = x > y
		}
		vals, err := nw.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for sig, w := range want {
			if vals[sig] != w {
				t.Fatalf("i10 %s = %v, want %v", sig, vals[sig], w)
			}
		}
	}
}

func TestZ4mlBehaviour(t *testing.T) {
	nw := Build("z4ml")
	for a := 0; a < 4; a++ {
		for c := 0; c < 4; c++ {
			for e := 0; e < 4; e++ {
				in := map[string]bool{}
				for i := 0; i < 2; i++ {
					in[nameN("a", i)] = a&(1<<uint(i)) != 0
					in[nameN("c", i)] = c&(1<<uint(i)) != 0
					in[nameN("e", i)] = e&(1<<uint(i)) != 0
				}
				out := evalInt(t, nw, in)
				want := a*c + e
				got := 0
				for i := 0; i < 4; i++ {
					if out[i] {
						got |= 1 << uint(i)
					}
				}
				if out[4] {
					got |= 16
				}
				if got != want {
					t.Fatalf("z4ml(%d*%d+%d) = %d, want %d", a, c, e, got, want)
				}
			}
		}
	}
}

func TestSquar5Behaviour(t *testing.T) {
	nw := Build("squar5")
	for x := 0; x < 32; x++ {
		in := map[string]bool{}
		for i := 0; i < 5; i++ {
			in[nameN("x", i)] = x&(1<<uint(i)) != 0
		}
		out := evalInt(t, nw, in)
		got := 0
		for i := 0; i < 6; i++ {
			if out[i] {
				got |= 1 << uint(i)
			}
		}
		if got != (x*x)&63 {
			t.Fatalf("squar5(%d) = %d, want %d", x, got, (x*x)&63)
		}
	}
}

func TestDecoderBehaviour(t *testing.T) {
	nw := Build("dec4")
	for sel := 0; sel < 16; sel++ {
		for en := 0; en < 2; en++ {
			in := map[string]bool{"en": en == 1}
			for i := 0; i < 4; i++ {
				in[nameN("s", i)] = sel&(1<<uint(i)) != 0
			}
			out := evalInt(t, nw, in)
			for i := 0; i < 16; i++ {
				want := en == 1 && i == sel
				if out[i] != want {
					t.Fatalf("dec4 sel=%d en=%d z%d=%v", sel, en, i, out[i])
				}
			}
		}
	}
}
