package core

import (
	"fmt"

	"tels/internal/logic"
	"tels/internal/netcore"
	"tels/internal/truth"
)

// pin is one input of a gate under construction: either an existing
// support signal used as a literal (possibly negated) or a fresh part
// signal whose function will be synthesized recursively.
type pin struct {
	name string
	// net is the support signal for literal pins (enqueued when used);
	// InvalidNet for fresh part signals. The zero Net is a real net, so
	// every pin must set this field explicitly.
	net  netcore.Net
	neg  bool    // literal phase for support-signal pins
	part *partFn // non-nil for fresh part signals
}

// partFn is a pending sub-function to synthesize.
type partFn struct {
	name    string
	tt      *truth.Table
	support []netcore.Net
}

// makePartPin converts a cube subset of a cover over support into a pin:
// single-literal parts are inlined as direct literals, everything else
// becomes a fresh part signal.
func (s *synthesizer) makePartPin(base string, cover logic.Cover, support []netcore.Net) pin {
	if len(cover.Cubes) == 1 && cover.Cubes[0].Literals() == 1 {
		for i, ph := range cover.Cubes[0] {
			if ph != logic.DC {
				return pin{name: s.src.NetName(support[i]), net: support[i], neg: ph == logic.Neg}
			}
		}
	}
	tt, sup := reduceSupport(truth.FromCover(cover), support)
	name := s.freshName(base)
	return pin{name: name, net: netcore.InvalidNet, part: &partFn{name: name, tt: tt, support: sup}}
}

// emitPinGate builds the gate function over the pins (OR or AND of the pin
// literals), solves its ILP — both shapes are always threshold — emits the
// gate, and recursively synthesizes the part pins.
func (s *synthesizer) emitPinGate(name string, pins []pin, isAnd bool) error {
	if len(pins) > s.o.Fanin {
		return fmt.Errorf("core: internal error: %d pins exceed fanin restriction %d", len(pins), s.o.Fanin)
	}
	cover := logic.NewCover(len(pins))
	if isAnd {
		c := logic.NewCube(len(pins))
		for i, p := range pins {
			c[i] = logic.Pos
			if p.neg {
				c[i] = logic.Neg
			}
		}
		cover.AddCube(c)
	} else {
		for i, p := range pins {
			c := logic.NewCube(len(pins))
			c[i] = logic.Pos
			if p.neg {
				c[i] = logic.Neg
			}
			cover.AddCube(c)
		}
	}
	tt := truth.FromCover(cover)
	s.stats.ILPCalls++
	v, ok := s.chk.Check(tt, s.don, s.o.DeltaOff, s.o.MaxWeight)
	if !ok {
		names := make([]string, len(pins))
		for i, p := range pins {
			names[i] = p.name
		}
		return fmt.Errorf("core: internal error: simple %s gate not threshold (cover %v, pins %v)",
			gateKind(isAnd), cover, names)
	}
	s.stats.ILPFeasible++
	inputs := make([]string, len(pins))
	for i, p := range pins {
		inputs[i] = p.name
		if p.net != netcore.InvalidNet {
			s.enqueue(p.net)
		}
	}
	if err := s.out.appendGate(&Gate{Name: name, Inputs: inputs, Weights: v.Weights, T: v.T}); err != nil {
		return err
	}
	for _, p := range pins {
		if p.part != nil {
			if err := s.synthFunction(p.part.name, p.part.tt, p.part.support); err != nil {
				return err
			}
		}
	}
	return nil
}

func gateKind(isAnd bool) string {
	if isAnd {
		return "AND"
	}
	return "OR"
}

// unateSplit handles a unate non-threshold (or over-wide) function per
// §V-C: factor a common literal, halve single-occurrence covers, or split
// on the most frequent variable; try Theorem 2 on the larger half; fall
// back to a k-way OR split.
func (s *synthesizer) unateSplit(name string, tt *truth.Table, support []netcore.Net) error {
	s.stats.UnateSplits++
	cover := tt.MinimalSOP()

	// Wide single cube: an AND that exceeds ψ. Split the literal set.
	if len(cover.Cubes) == 1 {
		return s.splitWideCube(name, cover, support)
	}

	usage := cover.Usage()

	// Condition 2: some variable appears in every cube — factor it out.
	var common []int
	for i, u := range usage {
		if u.Total() == len(cover.Cubes) {
			common = append(common, i)
		}
	}
	if len(common) > 0 {
		return s.factorCommon(name, cover, support, common)
	}

	// Condition 1: every variable appears exactly once — halve the cubes.
	allOnce := true
	for _, u := range usage {
		if u.Total() > 1 {
			allOnce = false
			break
		}
	}
	var coverA, coverB logic.Cover
	switch {
	case allOnce || s.o.Split == SplitBalanced:
		half := (len(cover.Cubes) + 1) / 2
		coverA = subCover(cover, 0, half)
		coverB = subCover(cover, half, len(cover.Cubes))
	case s.o.Split == SplitRandom:
		coverA = logic.NewCover(cover.N)
		coverB = logic.NewCover(cover.N)
		for _, c := range cover.Cubes {
			if s.rng.Intn(2) == 0 {
				coverA.AddCube(c.Clone())
			} else {
				coverB.AddCube(c.Clone())
			}
		}
		// A degenerate draw leaves a side empty; rebalance.
		if coverA.IsZero() || coverB.IsZero() {
			half := (len(cover.Cubes) + 1) / 2
			coverA = subCover(cover, 0, half)
			coverB = subCover(cover, half, len(cover.Cubes))
		}
	default:
		// Condition 3: split on the most frequent variable; condition 4:
		// break ties randomly.
		v := s.mostFrequentVar(usage)
		coverA = logic.NewCover(cover.N)
		coverB = logic.NewCover(cover.N)
		for _, c := range cover.Cubes {
			if c[v] != logic.DC {
				coverA.AddCube(c.Clone())
			} else {
				coverB.AddCube(c.Clone())
			}
		}
	}
	return s.twoWayOr(name, tt, support, coverA, coverB)
}

// mostFrequentVar picks the variable used in the most cubes, breaking ties
// with the synthesis RNG (§V-C condition 4).
func (s *synthesizer) mostFrequentVar(usage []logic.VarUsage) int {
	best := 0
	for i, u := range usage {
		if u.Total() > usage[best].Total() {
			best = i
		}
	}
	var tied []int
	for i, u := range usage {
		if u.Total() == usage[best].Total() {
			tied = append(tied, i)
		}
	}
	if len(tied) == 1 {
		return tied[0]
	}
	return tied[s.rng.Intn(len(tied))]
}

func subCover(f logic.Cover, lo, hi int) logic.Cover {
	out := logic.NewCover(f.N)
	for _, c := range f.Cubes[lo:hi] {
		out.AddCube(c.Clone())
	}
	return out
}

// splitWideCube splits an AND of more than ψ literals into a balanced
// two-input AND of sub-cubes.
func (s *synthesizer) splitWideCube(name string, cover logic.Cover, support []netcore.Net) error {
	cube := cover.Cubes[0]
	var lits []int
	for i, ph := range cube {
		if ph != logic.DC {
			lits = append(lits, i)
		}
	}
	half := (len(lits) + 1) / 2
	mk := func(idxs []int) logic.Cover {
		c := logic.NewCube(cover.N)
		for _, i := range idxs {
			c[i] = cube[i]
		}
		out := logic.NewCover(cover.N)
		out.AddCube(c)
		return out
	}
	pins := []pin{
		s.makePartPin(name, mk(lits[:half]), support),
		s.makePartPin(name, mk(lits[half:]), support),
	}
	return s.emitPinGate(name, pins, true)
}

// factorCommon implements condition 2: n = (common literals) * rest.
func (s *synthesizer) factorCommon(name string, cover logic.Cover, support []netcore.Net, common []int) error {
	rest := logic.NewCover(cover.N)
	for _, c := range cover.Cubes {
		d := c.Clone()
		for _, v := range common {
			d[v] = logic.DC
		}
		rest.AddCube(d)
	}
	rest = rest.SCC()
	restPin := s.makePartPin(name, rest, support)
	if len(common)+1 <= s.o.Fanin {
		pins := make([]pin, 0, len(common)+1)
		for _, v := range common {
			pins = append(pins, pin{
				name: s.src.NetName(support[v]),
				net:  support[v],
				neg:  cover.Cubes[0][v] == logic.Neg,
			})
		}
		pins = append(pins, restPin)
		return s.emitPinGate(name, pins, true)
	}
	// Too many common literals for one gate: common cube as its own part.
	commonCube := logic.NewCube(cover.N)
	for _, v := range common {
		commonCube[v] = cover.Cubes[0][v]
	}
	commonCover := logic.NewCover(cover.N)
	commonCover.AddCube(commonCube)
	pins := []pin{s.makePartPin(name, commonCover, support), restPin}
	return s.emitPinGate(name, pins, true)
}

// twoWayOr realizes n = A ∨ B: if either half is a threshold function and
// the merged gate fits ψ, Theorem 2 absorbs the other half as one extra
// input of the same gate; otherwise the node falls back to a k-way OR.
func (s *synthesizer) twoWayOr(name string, tt *truth.Table, support []netcore.Net, coverA, coverB logic.Cover) error {
	// Order: larger part (more cubes) first, per §V-C.
	if len(coverB.Cubes) > len(coverA.Cubes) {
		coverA, coverB = coverB, coverA
	}
	if !s.o.NoTheorem2 {
		if err, ok := s.tryTheorem2(name, coverA, coverB, support); ok {
			return err
		}
		if err, ok := s.tryTheorem2(name, coverB, coverA, support); ok {
			return err
		}
	}
	return s.kWayOr(name, tt, support)
}

// tryTheorem2 attempts to realize base ∨ extra as a single gate: base must
// be threshold and the gate (base's support plus one input) must fit ψ.
// The second return reports whether the gate was emitted.
func (s *synthesizer) tryTheorem2(name string, base, extra logic.Cover, support []netcore.Net) (error, bool) {
	baseTT, baseSup := reduceSupport(truth.FromCover(base), support)
	if baseTT.N()+1 > s.o.Fanin {
		return nil, false
	}
	s.stats.ILPCalls++
	if _, ok := s.chk.Check(baseTT, s.don, s.o.DeltaOff, s.o.MaxWeight); !ok {
		return nil, false
	}
	s.stats.ILPFeasible++

	extraPin := s.makePartPin(name, extra, support)
	n := baseTT.N()
	s.stats.ILPCalls++
	vec, ok := s.chk.Check(orNewVar(baseTT, extraPin.neg), s.don, s.o.DeltaOff, s.o.MaxWeight)
	if !ok {
		// Cannot happen for a genuinely new input (Theorem 2), but the
		// extra pin may alias a base support signal; fall back.
		return nil, false
	}
	s.stats.ILPFeasible++
	s.stats.Theorem2++

	inputs := make([]string, n+1)
	for i, sn := range baseSup {
		inputs[i] = s.src.NetName(sn)
		s.enqueue(sn)
	}
	inputs[n] = extraPin.name
	if extraPin.net != netcore.InvalidNet {
		s.enqueue(extraPin.net)
	}
	if err := s.out.appendGate(&Gate{Name: name, Inputs: inputs, Weights: vec.Weights, T: vec.T}); err != nil {
		return err, true
	}
	if extraPin.part != nil {
		return s.synthFunction(extraPin.part.name, extraPin.part.tt, extraPin.part.support), true
	}
	return nil, true
}

// orNewVar returns base ∨ x, or base ∨ ¬x when neg, over base's variables
// plus x as a new top variable: the half of the table where the x literal
// is false is base, the other half is all ones.
func orNewVar(base *truth.Table, neg bool) *truth.Table {
	n := base.N()
	b := base.Words()
	words := make([]uint64, truth.WordsFor(n+1))
	if n < 6 {
		size := uint(1) << uint(n)
		lo, ones := b[0]&(1<<size-1), uint64(1)<<size-1
		if neg {
			words[0] = ones | lo<<size
		} else {
			words[0] = lo | ones<<size
		}
		return truth.FromWords(n+1, words)
	}
	baseHalf, onesHalf := words[:len(b)], words[len(b):]
	if neg {
		baseHalf, onesHalf = onesHalf, baseHalf
	}
	copy(baseHalf, b)
	for i := range onesHalf {
		onesHalf[i] = ^uint64(0)
	}
	return truth.FromWords(n+1, words)
}

// kWayOr splits the function into k = min(ψ, |cubes|) OR parts with unit
// weights (§V-C final fallback, and §V-D for binate nodes).
func (s *synthesizer) kWayOr(name string, tt *truth.Table, support []netcore.Net) error {
	cover := tt.MinimalSOP()
	k := s.o.Fanin
	if len(cover.Cubes) < k {
		k = len(cover.Cubes)
	}
	parts := make([]logic.Cover, k)
	for i := range parts {
		parts[i] = logic.NewCover(cover.N)
	}
	for i, c := range cover.Cubes {
		parts[i%k].AddCube(c.Clone())
	}
	pins := make([]pin, k)
	for i, p := range parts {
		pins[i] = s.makePartPin(name, p, support)
	}
	return s.emitPinGate(name, pins, false)
}

// binateSplit implements Fig. 8: split on the most frequent binate
// variable until k parts (or none left), finish with unate splits, and
// emit the OR of the parts.
func (s *synthesizer) binateSplit(name string, tt *truth.Table, support []netcore.Net) error {
	s.stats.BinateSplits++
	cover := tt.MinimalSOP()
	k := s.o.Fanin
	if len(cover.Cubes) < k {
		k = len(cover.Cubes)
	}
	parts := []logic.Cover{cover}

	// Phase 1: split parts on binate variables.
	for len(parts) < k {
		pi, v := s.findBinatePart(parts)
		if pi < 0 {
			break
		}
		p := parts[pi]
		pos := logic.NewCover(p.N) // positive-phase and absent cubes
		neg := logic.NewCover(p.N) // negative-phase cubes
		for _, c := range p.Cubes {
			if c[v] == logic.Neg {
				neg.AddCube(c.Clone())
			} else {
				pos.AddCube(c.Clone())
			}
		}
		parts = append(parts[:pi], parts[pi+1:]...)
		parts = append(parts, pos, neg)
	}
	// Phase 2: split multi-cube unate parts.
	for len(parts) < k {
		pi := -1
		for i, p := range parts {
			if len(p.Cubes) >= 2 {
				pi = i
				break
			}
		}
		if pi < 0 {
			break
		}
		p := parts[pi]
		half := (len(p.Cubes) + 1) / 2
		a := subCover(p, 0, half)
		b := subCover(p, half, len(p.Cubes))
		parts = append(parts[:pi], parts[pi+1:]...)
		parts = append(parts, a, b)
	}

	pins := make([]pin, len(parts))
	for i, p := range parts {
		pins[i] = s.makePartPin(name, p, support)
	}
	return s.emitPinGate(name, pins, false)
}

// findBinatePart returns the index of a part with a syntactically binate
// variable and that part's most frequent binate variable, or (-1, -1).
func (s *synthesizer) findBinatePart(parts []logic.Cover) (int, int) {
	for i, p := range parts {
		usage := p.Usage()
		best, bestCount := -1, 0
		for v, u := range usage {
			if u.Pos > 0 && u.Neg > 0 && u.Total() > bestCount {
				best, bestCount = v, u.Total()
			}
		}
		if best >= 0 {
			return i, best
		}
	}
	return -1, -1
}
