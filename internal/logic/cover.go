package logic

import (
	"fmt"
	"sort"
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

// Expr renders the cover as a human-readable expression using the supplied
// variable names, e.g. "a*!b + c".
func (f Cover) Expr(names []string) string {
	if f.IsZero() {
		return "0"
	}
	var terms []string
	for _, c := range f.Cubes {
		if c.IsUniverse() {
			terms = append(terms, "1")
			continue
		}
		var lits []string
		for i, p := range c {
			switch p {
			case Pos:
				lits = append(lits, names[i])
			case Neg:
				lits = append(lits, "!"+names[i])
			}
		}
		terms = append(terms, strings.Join(lits, "*"))
	}
	return strings.Join(terms, " + ")
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

// IsSyntacticallyUnate reports whether no variable appears in both phases
// in the cover as written. A function with a syntactically unate cover is
// unate; the converse does not hold for redundant covers.
func (f Cover) IsSyntacticallyUnate() bool {
	for _, u := range f.Usage() {
		if u.Pos > 0 && u.Neg > 0 {
			return false
		}
	}
	return true
}

// mostBinate returns the index of the variable appearing in both phases in
// the largest number of cubes, or -1 if the cover is syntactically unate.
func (f Cover) mostBinate() int {
	best, bestCount := -1, 0
	for i, u := range f.Usage() {
		if u.Pos > 0 && u.Neg > 0 && u.Total() > bestCount {
			best, bestCount = i, u.Total()
		}
	}
	return best
}

// mostActive returns the variable appearing in the most cubes (any phase),
// or -1 if no cube has a literal.
func (f Cover) mostActive() int {
	best, bestCount := -1, 0
	for i, u := range f.Usage() {
		if u.Total() > bestCount {
			best, bestCount = i, u.Total()
		}
	}
	return best
}

// Tautology reports whether the cover denotes the constant-1 function,
// using the standard recursive Shannon test with a unate shortcut.
func (f Cover) Tautology() bool {
	if f.HasUniverse() {
		return true
	}
	if f.IsZero() {
		return false
	}
	// Unate reduction: a unate cover is a tautology iff it contains the
	// universal cube (already checked above).
	split := f.mostBinate()
	if split < 0 {
		return false
	}
	return f.Cofactor(split, Pos).Tautology() && f.Cofactor(split, Neg).Tautology()
}

// Complement returns a cover of the complement function, computed by
// recursive Shannon expansion with single-cube containment cleanup.
func (f Cover) Complement() Cover {
	if f.IsZero() {
		return One(f.N)
	}
	if f.HasUniverse() {
		return Zero(f.N)
	}
	if len(f.Cubes) == 1 {
		return cubeComplement(f.N, f.Cubes[0])
	}
	split := f.mostBinate()
	if split < 0 {
		split = f.mostActive()
	}
	if split < 0 {
		// No literals anywhere but no universal cube: impossible, since a
		// literal-free cube is universal.
		return Zero(f.N)
	}
	pos := f.Cofactor(split, Pos).Complement()
	neg := f.Cofactor(split, Neg).Complement()
	out := NewCover(f.N)
	for _, c := range pos.Cubes {
		d := c.Clone()
		if d[split] == DC {
			d[split] = Pos
		}
		out.Cubes = append(out.Cubes, d)
	}
	for _, c := range neg.Cubes {
		d := c.Clone()
		if d[split] == DC {
			d[split] = Neg
		}
		out.Cubes = append(out.Cubes, d)
	}
	return out.mergeComplementHalves(split).SCC()
}

// mergeComplementHalves merges pairs of cubes identical except for opposite
// phases of the split variable, lifting them to DC. This keeps Shannon
// complements from exploding.
func (f Cover) mergeComplementHalves(split int) Cover {
	out := NewCover(f.N)
	used := make([]bool, len(f.Cubes))
	for i, c := range f.Cubes {
		if used[i] {
			continue
		}
		merged := false
		if c[split] != DC {
			for j := i + 1; j < len(f.Cubes); j++ {
				if used[j] {
					continue
				}
				d := f.Cubes[j]
				if d[split] != DC && d[split] != c[split] && c.Without(split).Equal(d.Without(split)) {
					out.Cubes = append(out.Cubes, c.Without(split))
					used[i], used[j] = true, true
					merged = true
					break
				}
			}
		}
		if !merged {
			out.Cubes = append(out.Cubes, c.Clone())
			used[i] = true
		}
	}
	return out
}

// cubeComplement returns the complement of a single cube by De Morgan: one
// single-literal cube per literal, with the phase flipped.
func cubeComplement(n int, c Cube) Cover {
	out := NewCover(n)
	for i, p := range c {
		if p == DC {
			continue
		}
		d := NewCube(n)
		if p == Pos {
			d[i] = Neg
		} else {
			d[i] = Pos
		}
		out.Cubes = append(out.Cubes, d)
	}
	return out
}

// Or returns the disjunction of two covers over the same variable count.
func (f Cover) Or(g Cover) Cover {
	if f.N != g.N {
		panic("logic: Or of covers with different variable counts")
	}
	out := f.Clone()
	for _, c := range g.Cubes {
		out.Cubes = append(out.Cubes, c.Clone())
	}
	return out
}

// Equivalent reports whether two covers denote the same function, via two
// tautology checks of (f' + g) and (f + g').
func (f Cover) Equivalent(g Cover) bool {
	if f.N != g.N {
		return false
	}
	fImpliesG := f.Complement().Or(g)
	gImpliesF := g.Complement().Or(f)
	return fImpliesG.Tautology() && gImpliesF.Tautology()
}

// Minterms returns the sorted list of minterm indices covered by f.
// Intended for small N (it enumerates 2^N assignments).
func (f Cover) Minterms() []int {
	if f.N > 24 {
		panic("logic: Minterms on cover with more than 24 variables")
	}
	var out []int
	assign := make([]bool, f.N)
	for m := 0; m < 1<<uint(f.N); m++ {
		for i := 0; i < f.N; i++ {
			assign[i] = m&(1<<uint(i)) != 0
		}
		if f.Eval(assign) {
			out = append(out, m)
		}
	}
	return out
}

// Canonical returns a deterministic, sorted, SCC-reduced copy of the cover,
// useful for comparing covers structurally in tests.
func (f Cover) Canonical() Cover {
	g := f.SCC()
	sort.Slice(g.Cubes, func(i, j int) bool {
		return g.Cubes[i].String() < g.Cubes[j].String()
	})
	return g
}
