// Package logic provides positional-cube covers, the sum-of-products form
// the rest of the synthesis system builds on: node functions in the
// Boolean network, the splitting heuristics of the threshold synthesizer,
// and the algebraic factorization engine all manipulate Cover values.
// Its operations work on the cubes as written (single-cube containment,
// cofactors, support); two-level minimization works on truth tables, in
// package truth.
//
// A cube assigns one of three phases to each variable position: Neg (the
// variable appears complemented), Pos (uncomplemented), or DC (the variable
// does not appear). A cover is a set of cubes interpreted as their OR.
package logic

import (
	"fmt"
	"strings"
)

// Phase is the polarity of one variable position within a cube.
type Phase uint8

// The three possible phases of a variable in a cube.
const (
	Neg Phase = 0 // variable appears complemented (input must be 0)
	Pos Phase = 1 // variable appears uncomplemented (input must be 1)
	DC  Phase = 2 // variable does not appear (don't care)
)

func (p Phase) String() string {
	switch p {
	case Neg:
		return "0"
	case Pos:
		return "1"
	case DC:
		return "-"
	}
	return "?"
}

// Cube is a product term over n variables in positional notation.
// cube[i] gives the phase of variable i.
type Cube []Phase

// NewCube returns a cube of n variables with every position set to DC,
// i.e. the universal cube (constant 1).
func NewCube(n int) Cube {
	c := make(Cube, n)
	for i := range c {
		c[i] = DC
	}
	return c
}

// ParseCube parses a string of '0', '1' and '-' characters into a cube.
func ParseCube(s string) (Cube, error) {
	c := make(Cube, len(s))
	for i, r := range s {
		switch r {
		case '0':
			c[i] = Neg
		case '1':
			c[i] = Pos
		case '-':
			c[i] = DC
		default:
			return nil, fmt.Errorf("logic: invalid cube character %q in %q", r, s)
		}
	}
	return c, nil
}

// String renders the cube in positional notation, e.g. "1-0".
func (c Cube) String() string {
	var b strings.Builder
	for _, p := range c {
		b.WriteString(p.String())
	}
	return b.String()
}

// Clone returns an independent copy of the cube.
func (c Cube) Clone() Cube {
	d := make(Cube, len(c))
	copy(d, c)
	return d
}

// Literals returns the number of non-DC positions in the cube.
func (c Cube) Literals() int {
	n := 0
	for _, p := range c {
		if p != DC {
			n++
		}
	}
	return n
}

// IsUniverse reports whether every position is DC (the constant-1 cube).
func (c Cube) IsUniverse() bool {
	for _, p := range c {
		if p != DC {
			return false
		}
	}
	return true
}

// Contains reports whether c contains d, i.e. every minterm of d is a
// minterm of c. This holds iff at every position c is DC or agrees with d.
func (c Cube) Contains(d Cube) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != DC && c[i] != d[i] {
			return false
		}
	}
	return true
}

// Eval reports whether the cube covers the given complete assignment.
func (c Cube) Eval(assign []bool) bool {
	for i, p := range c {
		switch p {
		case Pos:
			if !assign[i] {
				return false
			}
		case Neg:
			if assign[i] {
				return false
			}
		}
	}
	return true
}

// Cofactor returns the cofactor of the cube with respect to variable i set
// to the given phase (Pos or Neg), and reports whether the cofactor is
// non-empty. In the returned cube position i becomes DC.
func (c Cube) Cofactor(i int, ph Phase) (Cube, bool) {
	if c[i] != DC && c[i] != ph {
		return nil, false
	}
	d := c.Clone()
	d[i] = DC
	return d, true
}
