// Package truth implements an exact truth-table engine for small Boolean
// functions (up to 24 variables). The threshold synthesizer works on
// collapsed node functions whose support is bounded by the fanin
// restriction, so exact bit-level manipulation is both affordable and
// removes any dependence on cover minimality: unateness, support membership
// and equivalence are all decided exactly here.
package truth

import (
	"fmt"
	"math/bits"

	"tels/internal/logic"
)

// MaxVars is the largest supported variable count. 2^24 bits = 2 MiB per
// table; collapsed functions in practice have at most a dozen variables.
const MaxVars = 24

// Table is the truth table of a Boolean function of N variables. Bit m of
// the table is the function value on the assignment whose i-th variable is
// bit i of m.
type Table struct {
	n    int
	bits []uint64
}

// New returns the constant-0 table of n variables.
func New(n int) *Table {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("truth: variable count %d out of range [0,%d]", n, MaxVars))
	}
	return &Table{n: n, bits: make([]uint64, WordsFor(n))}
}

// WordsFor returns the packed word count of an n-variable table: one
// word below six variables, 2^(n−6) from six on.
func WordsFor(n int) int {
	size := 1 << uint(n)
	if size < 64 {
		return 1
	}
	return size / 64
}

// N returns the number of variables.
func (t *Table) N() int { return t.n }

// Words exposes the packed minterm bits (64 minterms per word, unused
// high bits of the final word zero). The returned slice aliases the
// table's storage and must not be modified; it exists so callers can hash
// a table without walking minterms one by one.
func (t *Table) Words() []uint64 { return t.bits }

// FromWords returns the n-variable table with the given packed minterm
// bits, laid out as Words returns them. The words are copied and any bits
// past 2^n cleared.
func FromWords(n int, words []uint64) *Table {
	t := New(n)
	if len(words) != len(t.bits) {
		panic(fmt.Sprintf("truth: %d words for a %d-variable table, want %d", len(words), n, len(t.bits)))
	}
	copy(t.bits, words)
	t.bits[len(t.bits)-1] &= t.mask()
	return t
}

// Size returns the number of minterms, 2^N.
func (t *Table) Size() int { return 1 << uint(t.n) }

// Get reports the function value at minterm m.
func (t *Table) Get(m int) bool {
	return t.bits[m>>6]&(1<<uint(m&63)) != 0
}

// Set assigns the function value at minterm m.
func (t *Table) Set(m int, v bool) {
	if v {
		t.bits[m>>6] |= 1 << uint(m&63)
	} else {
		t.bits[m>>6] &^= 1 << uint(m&63)
	}
}

// mask returns the valid-bit mask for the final word of a table with fewer
// than 64 minterms.
func (t *Table) mask() uint64 {
	if t.Size() >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(t.Size())) - 1
}

// Clone returns an independent copy.
func (t *Table) Clone() *Table {
	u := New(t.n)
	copy(u.bits, t.bits)
	return u
}

// Const returns the constant table of n variables with the given value.
func Const(n int, v bool) *Table {
	t := New(n)
	if v {
		for i := range t.bits {
			t.bits[i] = ^uint64(0)
		}
		t.bits[len(t.bits)-1] &= t.mask()
	}
	return t
}

// Var returns the table of the projection function x_i over n variables.
func Var(n, i int) *Table {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("truth: variable %d out of range for %d-variable table", i, n))
	}
	t := New(n)
	if i < 6 {
		for w := range t.bits {
			t.bits[w] = varMasks[i]
		}
		t.bits[len(t.bits)-1] &= t.mask()
		return t
	}
	s := 1 << uint(i-6)
	for w := range t.bits {
		if w&s != 0 {
			t.bits[w] = ^uint64(0)
		}
	}
	return t
}

// Not returns the complement function.
func (t *Table) Not() *Table {
	u := New(t.n)
	for i := range t.bits {
		u.bits[i] = ^t.bits[i]
	}
	u.bits[len(u.bits)-1] &= t.mask()
	return u
}

// And returns the conjunction of two tables of the same arity.
func (t *Table) And(u *Table) *Table {
	t.checkArity(u)
	v := New(t.n)
	for i := range t.bits {
		v.bits[i] = t.bits[i] & u.bits[i]
	}
	return v
}

// Or returns the disjunction of two tables of the same arity.
func (t *Table) Or(u *Table) *Table {
	t.checkArity(u)
	v := New(t.n)
	for i := range t.bits {
		v.bits[i] = t.bits[i] | u.bits[i]
	}
	return v
}

// Xor returns the exclusive-or of two tables of the same arity.
func (t *Table) Xor(u *Table) *Table {
	t.checkArity(u)
	v := New(t.n)
	for i := range t.bits {
		v.bits[i] = t.bits[i] ^ u.bits[i]
	}
	return v
}

func (t *Table) checkArity(u *Table) {
	if t.n != u.n {
		panic(fmt.Sprintf("truth: arity mismatch %d vs %d", t.n, u.n))
	}
}

// Equal reports whether two tables denote the same function.
func (t *Table) Equal(u *Table) bool {
	if t.n != u.n {
		return false
	}
	for i := range t.bits {
		if t.bits[i] != u.bits[i] {
			return false
		}
	}
	return true
}

// IsConst reports whether the function is constant, and its value.
func (t *Table) IsConst() (bool, bool) {
	ones := t.CountOnes()
	if ones == 0 {
		return true, false
	}
	if ones == t.Size() {
		return true, true
	}
	return false, false
}

// CountOnes returns the number of ON-set minterms.
func (t *Table) CountOnes() int {
	n := 0
	for _, w := range t.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Eval evaluates the function on an assignment of all N variables.
func (t *Table) Eval(assign []bool) bool {
	m := 0
	for i, v := range assign {
		if v {
			m |= 1 << uint(i)
		}
	}
	return t.Get(m)
}

// varMasks[i] is the packed table of variable i within one 64-minterm word.
var varMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// The primitives below work on whole words. Variable i < 6 lives inside
// each word: its partner minterm m^2^i is an in-word shift by 2^i away and
// varMasks[i] marks the positions where it is 1. Variable i >= 6 selects
// words: the partner of word w is word w^2^(i-6). A table with fewer than
// 64 minterms is masked to its 2^N valid bits on read, so bits past 2^N
// never reach a result.

// DependsOn reports whether the function depends on variable i: whether
// some minterm and its partner across i differ.
func (t *Table) DependsOn(i int) bool {
	t.checkVar(i)
	if i < 6 {
		k, m, valid := uint(1)<<uint(i), varMasks[i], t.mask()
		for _, a := range t.bits {
			a &= valid
			if (a^a>>k)&^m != 0 {
				return true
			}
		}
		return false
	}
	s := 1 << uint(i-6)
	for w := range t.bits {
		if w&s == 0 && t.bits[w] != t.bits[w|s] {
			return true
		}
	}
	return false
}

// Support returns the indices of variables the function truly depends on.
func (t *Table) Support() []int {
	var dep uint32
	for i := 0; i < t.n; i++ {
		if t.DependsOn(i) {
			dep |= 1 << uint(i)
		}
	}
	if dep == 0 {
		return nil
	}
	s := make([]int, 0, bits.OnesCount32(dep))
	for ; dep != 0; dep &= dep - 1 {
		s = append(s, bits.TrailingZeros32(dep))
	}
	return s
}

// Unateness classifies a variable's influence on the function.
type Unateness int

// The possible unateness classifications of one variable.
const (
	Independent Unateness = iota // f does not depend on the variable
	PosUnate                     // f is positive (monotone increasing) in it
	NegUnate                     // f is negative (monotone decreasing) in it
	Binate                       // f depends on it non-monotonically
)

func (u Unateness) String() string {
	switch u {
	case Independent:
		return "independent"
	case PosUnate:
		return "positive-unate"
	case NegUnate:
		return "negative-unate"
	case Binate:
		return "binate"
	}
	return "unknown"
}

// VarUnateness classifies variable i exactly via cofactor containment:
// f is positive unate in x iff f|x=0 implies f|x=1. The two cofactors are
// compared in place, minterm against partner, without building either.
func (t *Table) VarUnateness(i int) Unateness {
	t.checkVar(i)
	// fall collects minterms where f|x=0 is 1 and f|x=1 is 0, rise the
	// reverse; either one nonzero breaks one containment.
	var fall, rise uint64
	if i < 6 {
		k, m, valid := uint(1)<<uint(i), varMasks[i], t.mask()
		for _, a := range t.bits {
			a &= valid
			lo, hi := a&^m, a>>k&^m
			fall |= lo &^ hi
			rise |= hi &^ lo
			if fall != 0 && rise != 0 {
				return Binate
			}
		}
	} else {
		s := 1 << uint(i-6)
		for w := range t.bits {
			if w&s != 0 {
				continue
			}
			lo, hi := t.bits[w], t.bits[w|s]
			fall |= lo &^ hi
			rise |= hi &^ lo
			if fall != 0 && rise != 0 {
				return Binate
			}
		}
	}
	switch {
	case fall == 0 && rise == 0:
		return Independent
	case fall == 0:
		return PosUnate
	default:
		return NegUnate
	}
}

// IsUnate reports whether the function is unate in every variable it
// depends on.
func (t *Table) IsUnate() bool {
	for i := 0; i < t.n; i++ {
		if t.VarUnateness(i) == Binate {
			return false
		}
	}
	return true
}

func (t *Table) checkVar(i int) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("truth: variable %d out of range for %d-variable table", i, t.n))
	}
}

// FromCover builds the table of a cover. Each cube is a subcube of the
// minterm space: its literals on variables below 6 give one in-word mask,
// and its don't-cares on variables 6 and up enumerate the words the mask
// is ORed into.
func FromCover(f logic.Cover) *Table {
	t := New(f.N)
	for _, c := range f.Cubes {
		var values, dcs uint32
		for i, p := range c {
			switch p {
			case logic.Pos:
				values |= 1 << uint(i)
			case logic.Neg:
			default:
				dcs |= 1 << uint(i)
			}
		}
		t.orCube(values, dcs)
	}
	return t
}

// FromCubes builds the n-variable table of nCubes cubes laid out
// cube-major, len(vars) literals each (the layout of netcore's cover
// slab), where literal j of every cube reads variable vars[j]. vars may
// repeat a variable: a cube with both phases of it is empty, and
// variables no entry names are don't-cares.
func FromCubes(n int, phases []logic.Phase, nCubes int, vars []int) *Table {
	t := New(n)
	width := len(vars)
	all := uint32(1)<<uint(n) - 1
cubes:
	for c := 0; c < nCubes; c++ {
		var values, care uint32
		for j, p := range phases[c*width : (c+1)*width] {
			if p != logic.Pos && p != logic.Neg {
				continue
			}
			bit := uint32(1) << uint(vars[j])
			v := bit
			if p == logic.Neg {
				v = 0
			}
			if care&bit != 0 && values&bit != v {
				continue cubes
			}
			care |= bit
			values |= v
		}
		t.orCube(values, all&^care)
	}
	return t
}

// orCube ORs the subcube with the given values and don't-care mask into
// the table.
func (t *Table) orCube(values, dcs uint32) {
	low := inWordMask(values, dcs, t.n) & t.mask()
	hiV, hiD := int32(values>>6), int32(dcs>>6)
	for sub := hiD; ; sub = (sub - 1) & hiD {
		t.bits[hiV|sub] |= low
		if sub == 0 {
			break
		}
	}
}

// inWordMask returns the minterms, within one word, of the cube with the
// given values and don't-care mask over n variables; only its literals on
// variables below 6 constrain the in-word position.
func inWordMask(values, dcs uint32, n int) uint64 {
	low := ^uint64(0)
	for i := 0; i < n && i < 6; i++ {
		switch {
		case dcs>>uint(i)&1 != 0:
		case values>>uint(i)&1 != 0:
			low &= varMasks[i]
		default:
			low &^= varMasks[i]
		}
	}
	return low
}

// Project returns the function re-expressed over only the given variables,
// which must include the true support. The k-th variable of the result is
// vars[k] of the original.
//
// A copy of the table has its variables swapped until vars[k] sits at
// position k; every variable left above len(vars) is then outside the
// support, so the result is the copy's first 2^len(vars) minterms.
func (t *Table) Project(vars []int) *Table {
	var keep uint32
	for _, v := range vars {
		if v < 0 || v >= t.n || keep>>uint(v)&1 != 0 {
			panic(fmt.Sprintf("truth: Project variable %d out of range or repeated", v))
		}
		keep |= 1 << uint(v)
	}
	for i := 0; i < t.n; i++ {
		if keep>>uint(i)&1 == 0 && t.DependsOn(i) {
			panic(fmt.Sprintf("truth: Project drops support variable %d", i))
		}
	}
	u := t.Clone()
	u.bits[len(u.bits)-1] &= t.mask()
	// at[p] is the original variable now at position p; pos is its inverse.
	var at, pos [MaxVars]int
	for i := 0; i < t.n; i++ {
		at[i], pos[i] = i, i
	}
	for k, v := range vars {
		// Positions below k hold vars[:k], so v sits at k or above.
		if p := pos[v]; p != k {
			u.swapVars(k, p)
			at[k], at[p] = v, at[k]
			pos[v], pos[at[p]] = k, p
		}
	}
	return FromWords(len(vars), u.bits[:WordsFor(len(vars))])
}

// swapVars exchanges variables i < j in place: the minterms with x_i = 1,
// x_j = 0 trade values with their partners with x_i = 0, x_j = 1.
func (t *Table) swapVars(i, j int) {
	switch {
	case j < 6:
		// Both in-word: the x_i=1, x_j=0 positions move up by d.
		d := uint(1)<<uint(j) - uint(1)<<uint(i)
		up := varMasks[i] &^ varMasks[j]
		for w, a := range t.bits {
			t.bits[w] = a&^(up|up<<d) | (a&up)<<d | (a>>d)&up
		}
	case i < 6:
		// x_i in-word, x_j across words: word w has x_j = 0, w|s has 1.
		k, m, s := uint(1)<<uint(i), varMasks[i], 1<<uint(j-6)
		for w := range t.bits {
			if w&s == 0 {
				a, b := t.bits[w], t.bits[w|s]
				t.bits[w], t.bits[w|s] = a&^m|(b&^m)<<k, b&m|(a&m)>>k
			}
		}
	default:
		si, sj := 1<<uint(i-6), 1<<uint(j-6)
		for w := range t.bits {
			if w&si != 0 && w&sj == 0 {
				t.bits[w], t.bits[w^si^sj] = t.bits[w^si^sj], t.bits[w]
			}
		}
	}
}

// Compose returns the function of g.N() variables that t computes when g
// drives its variable i: t's other variables keep their order at
// positions 0..t.N()-2, and positions from t.N()-1 up are read by g only.
// g must have at least t.N()-1 variables.
//
// A copy of t has variable i moved to the top, so its two halves are the
// cofactors at x_i = 0 and x_i = 1 over the other variables; each half is
// tiled across g's space and the result muxes them word by word on g.
func (t *Table) Compose(i int, g *Table) *Table {
	t.checkVar(i)
	h := t.n - 1
	if g.n < h {
		panic(fmt.Sprintf("truth: Compose of a %d-variable table into %d variables", t.n, g.n))
	}
	// Swaps below t.N() keep any stale bits past 2^N there, and the
	// halves below read only the first 2^N bits.
	u := t.Clone()
	for j := i; j < h; j++ {
		u.swapVars(j, j+1)
	}
	out := New(g.n)
	if h >= 6 {
		half := len(u.bits) / 2
		lo, hi := u.bits[:half], u.bits[half:]
		for w, sel := range g.bits {
			k := w & (half - 1)
			out.bits[w] = lo[k]&^sel | hi[k]&sel
		}
		return out
	}
	size := uint(1) << uint(h)
	valid := uint64(1)<<size - 1
	lo, hi := u.bits[0]&valid, u.bits[0]>>size&valid
	for p := size; p < 64; p <<= 1 {
		lo |= lo << p
		hi |= hi << p
	}
	for w, sel := range g.bits {
		out.bits[w] = lo&^sel | hi&sel
	}
	out.bits[len(out.bits)-1] &= out.mask()
	return out
}

// SubstituteNeg returns the function with variable i replaced by its
// complement (the phase-substitution used to put unate functions in
// positive form): every minterm trades values with its partner across i.
func (t *Table) SubstituteNeg(i int) *Table {
	t.checkVar(i)
	u := New(t.n)
	if i < 6 {
		k, m, valid := uint(1)<<uint(i), varMasks[i], t.mask()
		for w, a := range t.bits {
			a &= valid
			u.bits[w] = (a&m)>>k | (a&^m)<<k
		}
		return u
	}
	s := 1 << uint(i-6)
	for w := range t.bits {
		u.bits[w] = t.bits[w^s]
	}
	return u
}

// String renders the table as a bit string, minterm 0 first.
func (t *Table) String() string {
	b := make([]byte, t.Size())
	for m := 0; m < t.Size(); m++ {
		if t.Get(m) {
			b[m] = '1'
		} else {
			b[m] = '0'
		}
	}
	return string(b)
}
