package logic

import (
	"testing"
	"testing/quick"
)

func TestParseCube(t *testing.T) {
	c, err := ParseCube("1-0")
	if err != nil {
		t.Fatalf("ParseCube: %v", err)
	}
	if c[0] != Pos || c[1] != DC || c[2] != Neg {
		t.Fatalf("ParseCube(\"1-0\") = %v", c)
	}
	if got := c.String(); got != "1-0" {
		t.Fatalf("String() = %q, want %q", got, "1-0")
	}
	if _, err := ParseCube("1x0"); err == nil {
		t.Fatal("ParseCube accepted invalid character")
	}
}

func TestCubeLiterals(t *testing.T) {
	cases := []struct {
		cube string
		want int
	}{
		{"---", 0},
		{"1--", 1},
		{"101", 3},
		{"0-1", 2},
	}
	for _, tc := range cases {
		if got := MustParseCube(tc.cube).Literals(); got != tc.want {
			t.Errorf("Literals(%q) = %d, want %d", tc.cube, got, tc.want)
		}
	}
}

func TestCubeContains(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"---", "101", true},
		{"1--", "101", true},
		{"1--", "001", false},
		{"101", "101", true},
		{"101", "1-1", false},
		{"1-1", "101", true},
	}
	for _, tc := range cases {
		a, b := MustParseCube(tc.a), MustParseCube(tc.b)
		if got := a.Contains(b); got != tc.want {
			t.Errorf("Contains(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCubeEval(t *testing.T) {
	c := MustParseCube("1-0")
	if !c.Eval([]bool{true, false, false}) {
		t.Error("Eval(100) should be true")
	}
	if !c.Eval([]bool{true, true, false}) {
		t.Error("Eval(110) should be true")
	}
	if c.Eval([]bool{true, true, true}) {
		t.Error("Eval(111) should be false")
	}
	if c.Eval([]bool{false, true, false}) {
		t.Error("Eval(010) should be false")
	}
}

func TestCubeCofactor(t *testing.T) {
	c := MustParseCube("1-0")
	d, ok := c.Cofactor(0, Pos)
	if !ok || d.String() != "--0" {
		t.Fatalf("Cofactor(0, Pos) = %v, %v", d, ok)
	}
	if _, ok := c.Cofactor(0, Neg); ok {
		t.Fatal("Cofactor(0, Neg) of cube 1-0 should be empty")
	}
}

// Property: containment agrees with minterm subset.
func TestCubeContainsProperty(t *testing.T) {
	f := func(aRaw, bRaw [4]uint8) bool {
		a, b := make(Cube, 4), make(Cube, 4)
		for i := 0; i < 4; i++ {
			a[i] = Phase(aRaw[i] % 3)
			b[i] = Phase(bRaw[i] % 3)
		}
		subset := true
		assign := make([]bool, 4)
		for m := 0; m < 16; m++ {
			for i := 0; i < 4; i++ {
				assign[i] = m&(1<<uint(i)) != 0
			}
			if b.Eval(assign) && !a.Eval(assign) {
				subset = false
				break
			}
		}
		return a.Contains(b) == subset
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// MustParseCube is ParseCube that panics on malformed input.
func MustParseCube(s string) Cube {
	c, err := ParseCube(s)
	if err != nil {
		panic(err)
	}
	return c
}
