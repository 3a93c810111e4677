package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"tels/internal/netcore"
	"tels/internal/network"
	"tels/internal/opt"
	"tels/internal/truth"
)

// Options configures threshold network synthesis.
type Options struct {
	// Fanin is the fanin restriction ψ on every threshold gate (≥ 2).
	Fanin int
	// DeltaOn and DeltaOff are the defect tolerances of Eq. 1. The paper's
	// defaults are δon = 0 and δoff = 1. DeltaOff must be at least 1: at
	// 0 the OFF rows (Σ ≤ T − δoff) meet the ON rows at Σ = T and every
	// check's optimum is w = 0, T = 0.
	DeltaOn  int
	DeltaOff int
	// DeltaOnOverrides raises (or lowers) the ON-set separation margin for
	// individual source nodes: when the node named by a key is synthesized,
	// every gate emitted for it — including split parts — uses the mapped
	// δon instead of the global DeltaOn. Nodes collapsed into a consumer
	// take the consumer's margin. This is the selective-hardening hook of
	// internal/resyn: only the blamed gates pay the Fig. 12 area cost.
	DeltaOnOverrides map[string]int
	// Seed drives the random tie-break between equally frequent split
	// variables (§V-C condition 4).
	Seed int64
	// MaxWeight bounds |wᵢ| of every gate input (0 = unbounded): RTD peak
	// currents scale with the weight, so physical designs cap the ratio
	// to the unit RTD. Functions needing larger weights are split.
	MaxWeight int
	// NoCollapse disables the Fig. 4 node-collapsing step, synthesizing
	// every node over its immediate fanins. Ablation knob: quantifies how
	// much of TELS's gate reduction comes from collapsing.
	NoCollapse bool
	// NoTheorem2 disables the Theorem-2 merge after two-way splits,
	// always falling back to the k-way OR split. Ablation knob.
	NoTheorem2 bool
	// Split selects the unate-splitting heuristic. The paper (§VII)
	// conjectures "there may also exist better partitioning heuristics";
	// the alternatives here let that be measured.
	Split SplitStrategy
}

// SplitStrategy selects how a non-threshold unate cover is partitioned.
type SplitStrategy int

// Splitting heuristics.
const (
	// SplitFrequency is the paper's §V-C heuristic: split on the most
	// frequently appearing variable, ties broken randomly.
	SplitFrequency SplitStrategy = iota
	// SplitBalanced halves the cube list, keeping the two parts the same
	// size regardless of variable frequency.
	SplitBalanced
	// SplitRandom partitions the cubes uniformly at random — the strawman
	// baseline for the heuristics experiment.
	SplitRandom
)

func (s SplitStrategy) String() string {
	switch s {
	case SplitFrequency:
		return "frequency"
	case SplitBalanced:
		return "balanced"
	case SplitRandom:
		return "random"
	}
	return "unknown"
}

// DefaultOptions returns the paper's default configuration: ψ = 3,
// δon = 0, δoff = 1.
func DefaultOptions() Options {
	return Options{Fanin: 3, DeltaOn: 0, DeltaOff: 1}
}

// Validate reports whether the options are self-consistent. Map runs it
// first; the re-synthesis loop and telsd's request check call it too.
func (o *Options) Validate() error {
	if o.Fanin < 2 {
		return fmt.Errorf("core: fanin restriction %d < 2", o.Fanin)
	}
	if o.Fanin > truth.MaxVars {
		return fmt.Errorf("core: fanin restriction %d exceeds the %d-variable engine limit",
			o.Fanin, truth.MaxVars)
	}
	if o.DeltaOn < 0 {
		return fmt.Errorf("core: negative defect tolerance δon=%d", o.DeltaOn)
	}
	if o.MaxWeight < 0 {
		return fmt.Errorf("core: negative max weight %d (0 means unbounded)", o.MaxWeight)
	}
	if o.DeltaOff < 1 {
		return fmt.Errorf("core: defect tolerance δoff=%d < 1 (OFF rows would meet the ON rows at Σ = T)", o.DeltaOff)
	}
	maxDon := o.DeltaOn
	for name, don := range o.DeltaOnOverrides {
		if don < 0 {
			return fmt.Errorf("core: negative δon override %d for node %s", don, name)
		}
		if don > maxDon {
			maxDon = don
		}
	}
	if o.MaxWeight != 0 && o.MaxWeight < maxDon+o.DeltaOff {
		return fmt.Errorf("core: max weight %d below δon+δoff = %d (even OR gates need that much)",
			o.MaxWeight, maxDon+o.DeltaOff)
	}
	return nil
}

// DeltaOnFor returns the margin in effect for the named source node: its
// override when present, the global DeltaOn otherwise.
func (o *Options) DeltaOnFor(name string) int {
	if don, ok := o.DeltaOnOverrides[name]; ok {
		return don
	}
	return o.DeltaOn
}

// SynthStats reports what the synthesizer did.
type SynthStats struct {
	ILPCalls     int // threshold checks attempted
	ILPFeasible  int // checks that found a weight vector
	Collapses    int // node substitutions performed during collapsing
	UnateSplits  int // unate splitting steps
	BinateSplits int // binate splitting steps
	Theorem2     int // Theorem-2 merges applied
}

// maxSupport bounds collapsed/split function supports so truth tables stay
// small even when the input network has wide nodes.
const maxSupport = 12

// mappers is the one table of mappers, by name: "tels" is the paper's
// synthesis (Fig. 3), "one2one" its §VI-A baseline. Map and CheckMapper
// read it.
var mappers = []struct {
	name string
	run  func(*netcore.Network, Options) (*Network, SynthStats, error)
}{
	{"tels", synthesize},
	{"one2one", oneToOne},
}

// Map maps the Boolean network to a threshold network with the named
// mapper, after checking the options and the network. nw is not
// modified. Only "tels" reports SynthStats.
func Map(mapper string, nw *netcore.Network, o Options) (*Network, SynthStats, error) {
	for _, m := range mappers {
		if m.name != mapper {
			continue
		}
		if err := o.Validate(); err != nil {
			return nil, SynthStats{}, err
		}
		if err := nw.Validate(); err != nil {
			return nil, SynthStats{}, err
		}
		return m.run(nw, o)
	}
	return nil, SynthStats{}, CheckMapper(mapper)
}

// CheckMapper reports an error unless Map knows the mapper name.
func CheckMapper(mapper string) error {
	names := make([]string, len(mappers))
	for i, m := range mappers {
		if m.name == mapper {
			return nil
		}
		names[i] = m.name
	}
	return fmt.Errorf("unknown mapper %q (want %s)", mapper, strings.Join(names, ", "))
}

// Synthesize and OneToOne are pointer-network bridges over Map, kept for
// perfbench/adapter.go until the next benchmark change.

// Synthesize maps a pointer network with "tels".
func Synthesize(src *network.Network, o Options) (*Network, SynthStats, error) {
	return Map("tels", netcore.FromNetwork(src), o)
}

// OneToOne maps a pointer network with "one2one".
func OneToOne(src *network.Network, o Options) (*Network, error) {
	tn, _, err := Map("one2one", netcore.FromNetwork(src), o)
	return tn, err
}

// synthesize converts the Boolean network into a functionally equivalent
// threshold network per the paper's methodology (Fig. 3): every primary
// output is collapsed, checked, and recursively split until all nodes are
// threshold gates. Fanout nodes of the source network are preserved.
//
// It works on a Clone of src, structurally pre-decomposed; every read
// (node functions, fanins, fanout counts) runs against the slab, and a
// node's function is its cover built straight into a packed table.
func synthesize(src *netcore.Network, o Options) (*Network, SynthStats, error) {
	cw := src.Clone()
	// Nets wider than the truth-table engine are structurally split
	// first; the algorithm itself enforces ψ on the result.
	opt.DecomposeLargeCore(cw, maxSupport-2)

	s := newSynthesizer(cw, o)
	for _, in := range cw.Inputs() {
		s.out.AddInput(cw.NetName(in))
		s.done[in] = true
	}
	s.queue = append(s.queue, cw.Outputs()...)
	for len(s.queue) > 0 {
		n := s.queue[0]
		s.queue = s.queue[1:]
		if err := s.processNode(n); err != nil {
			return nil, s.stats, err
		}
	}
	for _, po := range cw.Outputs() {
		s.out.MarkOutput(cw.NetName(po))
	}
	// Gates were emitted parents first; order them once, then merge the
	// identical split gates that distinct cones can synthesize.
	err := s.out.sortGates()
	if err == nil {
		s.out.mergeDuplicates()
		err = s.out.Validate()
	}
	if err != nil {
		return nil, s.stats, fmt.Errorf("core: internal error, invalid output network: %w", err)
	}
	return s.out, s.stats, nil
}

type synthesizer struct {
	o   Options
	src *netcore.Network
	out *Network
	// fanout and done are indexed by net: the nets read by more than one
	// net position or output, and the nets already synthesized.
	fanout []bool
	done   []bool
	queue  []netcore.Net
	rng    *rand.Rand
	chk    Checker
	stats  SynthStats
	serial int
	// don is the margin of the source node currently being synthesized;
	// processNode sets it from the per-node overrides before any gate of
	// that node (split parts included) is emitted.
	don int
}

// newSynthesizer returns a synthesizer over src, with no net done yet.
func newSynthesizer(src *netcore.Network, o Options) *synthesizer {
	s := &synthesizer{
		o:      o,
		src:    src,
		out:    NewNetwork(src.Name),
		fanout: make([]bool, src.NetCount()),
		done:   make([]bool, src.NetCount()),
		rng:    rand.New(rand.NewSource(o.Seed)),
	}
	for _, n := range src.InternalNets() {
		s.fanout[n] = src.NetFanoutCount(n) > 1
	}
	return s
}

func (s *synthesizer) freshName(base string) string {
	for {
		s.serial++
		name := fmt.Sprintf("%s~%d", base, s.serial)
		if s.out.Gate(name) == nil && s.src.NetByName(name) == netcore.InvalidNet {
			return name
		}
	}
}

// enqueue schedules a source net for synthesis if not already handled.
func (s *synthesizer) enqueue(n netcore.Net) {
	if s.src.NetKind(n) == netcore.NetInput || s.done[n] {
		return
	}
	s.queue = append(s.queue, n)
}

// processNode synthesizes one source-network node into threshold gates.
func (s *synthesizer) processNode(n netcore.Net) error {
	if s.done[n] {
		return nil
	}
	s.done[n] = true
	name := s.src.NetName(n)
	s.don = s.o.DeltaOnFor(name)
	support := dedupeNets(append([]netcore.Net(nil), s.src.NetFanins(n)...))
	return s.synthFunction(name, s.netFunction(n, support), support)
}

// synthFunction emits a gate named name computing tt over the support
// signals, splitting recursively when the function is not threshold.
func (s *synthesizer) synthFunction(name string, tt *truth.Table, support []netcore.Net) error {
	tt, support = reduceSupport(tt, support)

	if isConst, v := tt.IsConst(); isConst {
		return s.out.appendGate(ConstGate(name, v, s.don, s.o.DeltaOff))
	}

	// Node collapsing (Fig. 4): substitute non-fanout internal support
	// nodes while the support stays within ψ.
	if !s.o.NoCollapse {
		tt, support = s.collapse(tt, support)
	}

	// Collapsing composes exact cone functions; a cone such as x*!x can
	// reduce to a constant here even though the node cover was not.
	if isConst, v := tt.IsConst(); isConst {
		return s.out.appendGate(ConstGate(name, v, s.don, s.o.DeltaOff))
	}

	// Classify unateness exactly.
	binate := false
	for i := 0; i < tt.N(); i++ {
		if tt.VarUnateness(i) == truth.Binate {
			binate = true
			break
		}
	}
	if binate {
		return s.binateSplit(name, tt, support)
	}

	// Threshold check, only meaningful within the fanin restriction.
	if tt.N() <= s.o.Fanin {
		s.stats.ILPCalls++
		if v, ok := s.chk.Check(tt, s.don, s.o.DeltaOff, s.o.MaxWeight); ok {
			s.stats.ILPFeasible++
			return s.emitGate(name, v, support)
		}
	}
	return s.unateSplit(name, tt, support)
}

// emitGate creates the LTG and schedules its support nets.
func (s *synthesizer) emitGate(name string, v WeightVector, support []netcore.Net) error {
	inputs := make([]string, len(support))
	for i, n := range support {
		inputs[i] = s.src.NetName(n)
		s.enqueue(n)
	}
	return s.out.appendGate(&Gate{Name: name, Inputs: inputs, Weights: v.Weights, T: v.T})
}

// collapse implements the Fig. 4 node-collapsing loop on the function
// level: repeatedly substitute a support net's function into tt unless
// the net is a primary input, a fanout net, already synthesized, or the
// substitution would exceed the fanin restriction (the "undo" branch).
func (s *synthesizer) collapse(tt *truth.Table, support []netcore.Net) (*truth.Table, []netcore.Net) {
	var failed []netcore.Net
	for {
		progress := false
		for idx, cand := range support {
			if s.src.NetKind(cand) == netcore.NetInput || s.fanout[cand] ||
				s.done[cand] || slices.Contains(failed, cand) {
				continue
			}
			// Fig. 4 checks the fanin count l = |F| syntactically before
			// accepting a substitution; doing the same here avoids building
			// truth tables for substitutions that will be undone anyway.
			if s.mergedSupportSize(support, idx) > s.o.Fanin {
				failed = append(failed, cand)
				continue
			}
			newTT, newSupport, ok := s.substitute(tt, support, idx)
			if !ok || newTT.N() > s.o.Fanin || newTT.N() > maxSupport {
				failed = append(failed, cand)
				continue
			}
			tt, support = newTT, newSupport
			s.stats.Collapses++
			progress = true
			break
		}
		if !progress {
			return tt, support
		}
	}
}

// mergedSupportSize returns |support \ {support[idx]} ∪ fanins(support[idx])|.
// support holds distinct nets and support[idx] is not its own fanin, so
// only the fanins new to support, each counted once, add to it.
func (s *synthesizer) mergedSupportSize(support []netcore.Net, idx int) int {
	fanins := s.src.NetFanins(support[idx])
	size := len(support) - 1
	for j, f := range fanins {
		if !slices.Contains(support, f) && !slices.Contains(fanins[:j], f) {
			size++
		}
	}
	return size
}

// substitute replaces support[idx] by that net's own function, returning
// the new function over the merged, reduced support: support without
// support[idx], in order, then the victim's fanins new to it. The victim's
// cover is built over the merged support and composed into tt word by
// word (truth.Compose). This stays pure truth-table math (rather than
// NetLocalTT over the merged support): the incoming tt can already be a
// composition whose intermediate cone inputs were dropped by
// reduceSupport, so the cone no longer exists in the network as a unit.
func (s *synthesizer) substitute(tt *truth.Table, support []netcore.Net, idx int) (*truth.Table, []netcore.Net, bool) {
	victim := support[idx]
	fanins := s.src.NetFanins(victim)
	merged := make([]netcore.Net, 0, len(support)-1+len(fanins))
	merged = append(merged, support[:idx]...)
	merged = append(merged, support[idx+1:]...)
	for _, f := range fanins {
		if !slices.Contains(merged, f) {
			merged = append(merged, f)
		}
	}
	if len(merged) > maxSupport {
		return nil, nil, false
	}
	composed := tt.Compose(idx, s.netFunction(victim, merged))
	rtt, rsupport := reduceSupport(composed, merged)
	return rtt, rsupport, true
}

// netFunction returns the table of net n's cover over support, which
// holds each of n's fanins: the node function itself, with no cone walk.
// A fanin the fanin list repeats reads one variable.
func (s *synthesizer) netFunction(n netcore.Net, support []netcore.Net) *truth.Table {
	fanins := s.src.NetFanins(n)
	vars := make([]int, len(fanins))
	for j, f := range fanins {
		vars[j] = slices.Index(support, f)
	}
	phases, nCubes, _ := s.src.NetCubes(n)
	return truth.FromCubes(len(support), phases, nCubes, vars)
}

// reduceSupport drops variables the function does not depend on.
func reduceSupport(tt *truth.Table, support []netcore.Net) (*truth.Table, []netcore.Net) {
	sup := tt.Support()
	if len(sup) == len(support) {
		return tt, support
	}
	reduced := tt.Project(sup)
	out := make([]netcore.Net, len(sup))
	for i, v := range sup {
		out[i] = support[v]
	}
	return reduced, out
}

// dedupeNets drops repeats in place, keeping each net's first position.
func dedupeNets(nets []netcore.Net) []netcore.Net {
	out := nets[:0]
	for _, n := range nets {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}
