package logic

import (
	"fmt"
	"strings"
)

// Cover is a sum-of-products expression: the OR of its cubes, each over the
// same N variables. The zero Cover with N=0 and no cubes is the constant 0
// of zero variables.
type Cover struct {
	N     int
	Cubes []Cube
}

// NewCover returns an empty (constant-0) cover over n variables.
func NewCover(n int) Cover {
	return Cover{N: n}
}

// CoverFromStrings builds a cover from positional cube strings such as
// "1-0". All strings must have the same length.
func CoverFromStrings(cubes ...string) (Cover, error) {
	if len(cubes) == 0 {
		return Cover{}, fmt.Errorf("logic: CoverFromStrings needs at least one cube")
	}
	cv := NewCover(len(cubes[0]))
	for _, s := range cubes {
		if len(s) != cv.N {
			return Cover{}, fmt.Errorf("logic: cube %q has %d positions, want %d", s, len(s), cv.N)
		}
		c, err := ParseCube(s)
		if err != nil {
			return Cover{}, err
		}
		cv.Cubes = append(cv.Cubes, c)
	}
	return cv, nil
}

// MustCover is CoverFromStrings that panics on malformed input.
func MustCover(cubes ...string) Cover {
	cv, err := CoverFromStrings(cubes...)
	if err != nil {
		panic(err)
	}
	return cv
}

// One returns the constant-1 cover over n variables (a single universal cube).
func One(n int) Cover {
	return Cover{N: n, Cubes: []Cube{NewCube(n)}}
}

// Zero returns the constant-0 cover over n variables (no cubes).
func Zero(n int) Cover {
	return Cover{N: n}
}

// Clone returns a deep copy of the cover.
func (f Cover) Clone() Cover {
	g := Cover{N: f.N, Cubes: make([]Cube, len(f.Cubes))}
	for i, c := range f.Cubes {
		g.Cubes[i] = c.Clone()
	}
	return g
}

// IsZero reports whether the cover has no cubes (constant 0 as written;
// note a non-empty cover may still denote constant 0 only if it has no
// cubes, since cubes are never empty).
func (f Cover) IsZero() bool { return len(f.Cubes) == 0 }

// HasUniverse reports whether some cube is the universal cube, which makes
// the cover syntactically the constant 1.
func (f Cover) HasUniverse() bool {
	for _, c := range f.Cubes {
		if c.IsUniverse() {
			return true
		}
	}
	return false
}

// String renders the cover as newline-free positional cubes joined by " + ".
func (f Cover) String() string {
	if f.IsZero() {
		return "0"
	}
	parts := make([]string, len(f.Cubes))
	for i, c := range f.Cubes {
		parts[i] = c.String()
	}
	return strings.Join(parts, " + ")
}

// Eval evaluates the cover on a complete assignment.
func (f Cover) Eval(assign []bool) bool {
	for _, c := range f.Cubes {
		if c.Eval(assign) {
			return true
		}
	}
	return false
}

// AddCube appends a cube to the cover. The cube length must match N.
func (f *Cover) AddCube(c Cube) {
	if len(c) != f.N {
		panic(fmt.Sprintf("logic: cube of %d positions added to %d-variable cover", len(c), f.N))
	}
	f.Cubes = append(f.Cubes, c)
}

// SCC returns the cover with single-cube containment removed: any cube
// contained in another cube of the cover is dropped. Duplicate cubes are
// reduced to one.
func (f Cover) SCC() Cover {
	out := NewCover(f.N)
	for i, c := range f.Cubes {
		contained := false
		for j, d := range f.Cubes {
			if i == j {
				continue
			}
			if d.Contains(c) {
				if !c.Contains(d) || j < i {
					// strictly contained, or equal with an earlier twin
					contained = true
					break
				}
			}
		}
		if !contained {
			out.Cubes = append(out.Cubes, c.Clone())
		}
	}
	return out
}

// Cofactor returns the Shannon cofactor of the cover with respect to
// variable i at the given phase. Position i becomes DC in every cube.
func (f Cover) Cofactor(i int, ph Phase) Cover {
	out := NewCover(f.N)
	for _, c := range f.Cubes {
		if d, ok := c.Cofactor(i, ph); ok {
			out.Cubes = append(out.Cubes, d)
		}
	}
	return out
}

// LiteralCount returns the total number of literals over all cubes.
func (f Cover) LiteralCount() int {
	n := 0
	for _, c := range f.Cubes {
		n += c.Literals()
	}
	return n
}

// VarUsage describes how a variable appears across the cubes of a cover.
type VarUsage struct {
	Pos int // cubes where the variable appears uncomplemented
	Neg int // cubes where the variable appears complemented
}

// Total returns the number of cubes in which the variable appears at all.
func (u VarUsage) Total() int { return u.Pos + u.Neg }

// Usage returns per-variable appearance counts across the cover.
func (f Cover) Usage() []VarUsage {
	u := make([]VarUsage, f.N)
	for _, c := range f.Cubes {
		for i, p := range c {
			switch p {
			case Pos:
				u[i].Pos++
			case Neg:
				u[i].Neg++
			}
		}
	}
	return u
}

// Support returns the indices of variables appearing in at least one cube.
func (f Cover) Support() []int {
	var vars []int
	for i, u := range f.Usage() {
		if u.Total() > 0 {
			vars = append(vars, i)
		}
	}
	return vars
}
