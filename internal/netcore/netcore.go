// Package netcore is the flat network core: a store of named Boolean-network
// signals addressed by int32 Net indices instead of per-node pointers.
//
// One Net per named node of the source network carries the name, the
// fanin Net list and the cover exactly as written. Fanin lists and cover
// phases live in two shared slabs, so a network is a few large
// allocations instead of one per node. Nothing is hashed or folded:
// optimization passes and the threshold synthesizer walk the nets as
// written, and their fanout counts and iteration order reproduce the
// pointer-based internal/network semantics exactly, which is what keeps
// synthesis output byte-identical.
//
// Replacing a net's function (SetFunction) appends the new fanins and
// cover to the slabs; the old ranges are left unreferenced rather than
// compacted.
package netcore

import (
	"fmt"
	"strings"

	"tels/internal/logic"
)

// Net addresses one named signal.
type Net int32

// InvalidNet is the sentinel for "no such net".
const InvalidNet Net = -1

// Net kinds.
const (
	// NetInput is a primary-input signal.
	NetInput uint8 = iota
	// NetFunc is an internal signal with a cover over its fanins.
	NetFunc
	netDead
)

type netRec struct {
	name     string
	kind     uint8
	refs     int32 // fanin references from live nets (per position) + output marks
	nFanin   int32
	faninOff int32
	nCubes   int32
	coverOff int32
	outCnt   int32 // occurrences in the outputs list (FromNetwork copies duplicate entries)
}

// Network is a slab-backed multi-output Boolean network.
type Network struct {
	Name string

	nets     []netRec
	netFan   []Net         // fanin slab
	phases   []logic.Phase // cover slab: nCubes x nFanin phases per cover
	byName   map[string]Net
	inputs   []Net
	outputs  []Net
	funcNets int            // live NetFunc count: O(1) GateCount
	suffix   map[string]int // FreshName next-suffix cache
}

// New returns an empty network.
func New(name string) *Network {
	return &Network{
		Name:   name,
		byName: make(map[string]Net),
		suffix: make(map[string]int),
	}
}

// GateCount returns the number of live internal nets in O(1).
func (nw *Network) GateCount() int { return nw.funcNets }

// Inputs returns the primary-input nets in declaration order.
func (nw *Network) Inputs() []Net { return nw.inputs }

// Outputs returns the primary-output nets in marking order.
func (nw *Network) Outputs() []Net { return nw.outputs }

// NetName returns the net's signal name.
func (nw *Network) NetName(n Net) string { return nw.nets[n].name }

// NetKind returns NetInput or NetFunc.
func (nw *Network) NetKind(n Net) uint8 { return nw.nets[n].kind }

// NetFanins returns the fanin nets of n. The slice aliases the slab and
// must not be modified.
func (nw *Network) NetFanins(n Net) []Net {
	r := &nw.nets[n]
	return nw.netFan[r.faninOff : r.faninOff+r.nFanin]
}

// NetFanoutCount returns how many live net fanin positions reference n,
// plus one if n is a primary output — the pointer network's FanoutCounts.
func (nw *Network) NetFanoutCount(n Net) int { return int(nw.nets[n].refs) }

// NetCubes returns the net's cover as the raw phase slab (cube-major,
// width = fanin count) without allocating. The slice must not be modified.
func (nw *Network) NetCubes(n Net) (phases []logic.Phase, nCubes, width int) {
	r := &nw.nets[n]
	return nw.phases[r.coverOff : r.coverOff+r.nCubes*r.nFanin], int(r.nCubes), int(r.nFanin)
}

// NetCover materializes the net's cover as a logic.Cover (allocates; use
// NetCubes on hot paths).
func (nw *Network) NetCover(n Net) logic.Cover {
	phases, nCubes, width := nw.NetCubes(n)
	cv := logic.NewCover(width)
	cv.Cubes = make([]logic.Cube, nCubes)
	for c := 0; c < nCubes; c++ {
		cube := make(logic.Cube, width)
		copy(cube, phases[c*width:(c+1)*width])
		cv.Cubes[c] = cube
	}
	return cv
}

// NetCount returns one more than the largest net number allocated so
// far, dead nets included: the length of a slice indexed by Net.
func (nw *Network) NetCount() int { return len(nw.nets) }

// NetByName returns the live net with the given name, or InvalidNet.
func (nw *Network) NetByName(name string) Net {
	if n, ok := nw.byName[name]; ok {
		return n
	}
	return InvalidNet
}

// AddInput creates a primary-input net. It panics if the name is taken.
func (nw *Network) AddInput(name string) Net {
	n := nw.newNet(name, NetInput)
	nw.inputs = append(nw.inputs, n)
	return n
}

// AddNode creates an internal net computing the cover over the fanins.
// The cover's variable count must equal len(fanins).
func (nw *Network) AddNode(name string, fanins []Net, cover logic.Cover) Net {
	if cover.N != len(fanins) {
		panic(fmt.Sprintf("netcore: node %s: cover over %d variables with %d fanins",
			name, cover.N, len(fanins)))
	}
	n := nw.newFuncNet(name)
	nw.bindFunction(n, fanins, cover)
	return n
}

// newNet appends a net record with no function. It panics if the name is
// taken.
func (nw *Network) newNet(name string, kind uint8) Net {
	if _, dup := nw.byName[name]; dup {
		panic(fmt.Sprintf("netcore: duplicate net name %q", name))
	}
	n := Net(len(nw.nets))
	nw.nets = append(nw.nets, netRec{name: name, kind: kind})
	nw.byName[name] = n
	return n
}

// newFuncNet appends an internal net record whose function is bound later.
func (nw *Network) newFuncNet(name string) Net {
	nw.funcNets++
	return nw.newNet(name, NetFunc)
}

// bindFunction gives net n the function: it copies the fanins and the
// cover, as written, onto the slabs and counts one reference per fanin
// position.
func (nw *Network) bindFunction(n Net, fanins []Net, cover logic.Cover) {
	r := &nw.nets[n]
	r.faninOff = int32(len(nw.netFan))
	r.nFanin = int32(len(fanins))
	nw.netFan = append(nw.netFan, fanins...)
	for _, f := range fanins {
		nw.nets[f].refs++
	}
	r.coverOff = int32(len(nw.phases))
	r.nCubes = int32(len(cover.Cubes))
	for _, c := range cover.Cubes {
		nw.phases = append(nw.phases, c...)
	}
}

// SetFunction replaces net n's function with the cover over the fanins.
func (nw *Network) SetFunction(n Net, fanins []Net, cover logic.Cover) {
	if cover.N != len(fanins) {
		panic(fmt.Sprintf("netcore: SetFunction %s: cover over %d variables with %d fanins",
			nw.nets[n].name, cover.N, len(fanins)))
	}
	if nw.nets[n].kind != NetFunc {
		panic(fmt.Sprintf("netcore: SetFunction on non-internal net %s", nw.nets[n].name))
	}
	nw.unbindFunction(n)
	nw.bindFunction(n, fanins, cover)
}

// unbindFunction drops the references net n's fanin positions hold.
func (nw *Network) unbindFunction(n Net) {
	for _, f := range nw.NetFanins(n) {
		nw.nets[f].refs--
	}
}

// MarkOutput declares the net a primary output. A net may be marked once;
// repeated marks are ignored, as in the pointer network.
func (nw *Network) MarkOutput(n Net) {
	if nw.nets[n].outCnt > 0 {
		return
	}
	nw.appendOutput(n)
}

// appendOutput adds an outputs-list entry unconditionally — FromNetwork
// uses it to reproduce duplicate output entries exactly.
func (nw *Network) appendOutput(n Net) {
	nw.nets[n].outCnt++
	nw.nets[n].refs++
	nw.outputs = append(nw.outputs, n)
}

// FreshName returns a name derived from base that is not in use. A cached
// per-base next suffix makes the scan O(1) amortized; removing a net
// invalidates the affected base so the produced names match a from-zero
// rescan exactly.
func (nw *Network) FreshName(base string) string {
	if _, taken := nw.byName[base]; !taken {
		return base
	}
	for i := nw.suffix[base]; ; i++ {
		name := fmt.Sprintf("%s_%d", base, i)
		if _, taken := nw.byName[name]; !taken {
			nw.suffix[base] = i
			return name
		}
	}
}

// noteRemovedName keeps the FreshName cache a sound lower bound: freeing
// base_i for any i below the cached suffix re-opens the hole.
func (nw *Network) noteRemovedName(name string) {
	i := strings.LastIndexByte(name, '_')
	if i < 0 {
		return
	}
	delete(nw.suffix, name[:i])
}

// removeNet kills an internal net record. The caller must have cleared
// external references (fanin positions, output marks).
func (nw *Network) removeNet(n Net) {
	r := &nw.nets[n]
	nw.unbindFunction(n)
	nw.funcNets--
	delete(nw.byName, r.name)
	nw.noteRemovedName(r.name)
	r.kind = netDead
	r.nFanin = 0
	r.nCubes = 0
}

// RemoveDangling deletes internal nets with no fanouts that are not
// outputs, repeating until fixpoint. Returns the number removed.
func (nw *Network) RemoveDangling() int {
	removed := 0
	for {
		round := 0
		for i := range nw.nets {
			r := &nw.nets[i]
			if r.kind == NetFunc && r.refs == 0 {
				nw.removeNet(Net(i))
				round++
			}
		}
		if round == 0 {
			return removed
		}
		removed += round
	}
}

// Nets returns all live nets in creation order.
func (nw *Network) Nets() []Net {
	out := make([]Net, 0, len(nw.nets))
	for i := range nw.nets {
		if nw.nets[i].kind != netDead {
			out = append(out, Net(i))
		}
	}
	return out
}

// InternalNets returns the live internal nets in creation order.
func (nw *Network) InternalNets() []Net {
	out := make([]Net, 0, nw.funcNets)
	for i := range nw.nets {
		if nw.nets[i].kind == NetFunc {
			out = append(out, Net(i))
		}
	}
	return out
}

// TopoNets returns the live nets in topological order (fanins before
// fanouts), visiting roots in creation order exactly as the pointer
// network's TopoSort does. It returns an error on a cycle.
func (nw *Network) TopoNets() ([]Net, error) {
	const (
		unseen = 0
		active = 1
		done   = 2
	)
	state := make([]uint8, len(nw.nets))
	out := make([]Net, 0, len(nw.nets))
	var visit func(n Net) error
	visit = func(n Net) error {
		switch state[n] {
		case done:
			return nil
		case active:
			return fmt.Errorf("netcore %s: cycle through net %s", nw.Name, nw.nets[n].name)
		}
		state[n] = active
		for _, f := range nw.NetFanins(n) {
			if err := visit(f); err != nil {
				return err
			}
		}
		state[n] = done
		out = append(out, n)
		return nil
	}
	for i := range nw.nets {
		if nw.nets[i].kind == netDead {
			continue
		}
		if err := visit(Net(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Validate checks structural sanity: acyclicity, cover arity, live
// fanins, reference-count consistency, and that outputs exist.
func (nw *Network) Validate() error {
	if _, err := nw.TopoNets(); err != nil {
		return err
	}
	refs := make([]int32, len(nw.nets))
	for i := range nw.nets {
		r := &nw.nets[i]
		if r.kind == netDead {
			continue
		}
		for _, f := range nw.NetFanins(Net(i)) {
			if nw.nets[f].kind == netDead {
				return fmt.Errorf("netcore %s: net %s has dead fanin %s", nw.Name, r.name, nw.nets[f].name)
			}
			refs[f]++
		}
		refs[i] += r.outCnt
	}
	for i := range nw.nets {
		r := &nw.nets[i]
		if r.kind == netDead {
			continue
		}
		if r.refs != refs[i] {
			return fmt.Errorf("netcore %s: net %s refcount %d, recount %d", nw.Name, r.name, r.refs, refs[i])
		}
	}
	if len(nw.outputs) == 0 {
		return fmt.Errorf("netcore %s: no primary outputs", nw.Name)
	}
	return nil
}

// Clone returns a copy of the network in normal order: the inputs, then
// the live internal nets in TopoNets order, then each output marked once.
// Dead nets are dropped. It is the order the pointer network's Clone
// gives, the one the optimization scripts and the synthesizer start from.
func (nw *Network) Clone() *Network {
	out := New(nw.Name)
	mapping := make([]Net, len(nw.nets))
	for _, in := range nw.inputs {
		mapping[in] = out.AddInput(nw.nets[in].name)
	}
	order, err := nw.TopoNets()
	if err != nil {
		panic(fmt.Sprintf("netcore: Clone(%s): %v", nw.Name, err))
	}
	var fanins []Net
	for _, n := range order {
		if nw.nets[n].kind != NetFunc {
			continue
		}
		fanins = fanins[:0]
		for _, f := range nw.NetFanins(n) {
			fanins = append(fanins, mapping[f])
		}
		mapping[n] = out.AddNode(nw.nets[n].name, fanins, nw.NetCover(n))
	}
	for _, o := range nw.outputs {
		out.MarkOutput(mapping[o])
	}
	return out
}

// Levels returns each net's level, indexed by Net (primary inputs and
// dead nets at 0, an internal net one more than its deepest fanin), and
// the network depth.
func (nw *Network) Levels() ([]int, int) {
	order, err := nw.TopoNets()
	if err != nil {
		panic(err)
	}
	levels := make([]int, len(nw.nets))
	depth := 0
	for _, n := range order {
		if nw.nets[n].kind != NetFunc {
			continue
		}
		l := 0
		for _, f := range nw.NetFanins(n) {
			l = max(l, levels[f]+1)
		}
		levels[n] = l
		depth = max(depth, l)
	}
	return levels, depth
}

// Stats summarizes a network for reporting.
type Stats struct {
	Inputs   int
	Outputs  int
	Gates    int
	Levels   int
	Literals int
}

// Stats computes summary statistics.
func (nw *Network) Stats() Stats {
	_, depth := nw.Levels()
	lits := 0
	for _, n := range nw.InternalNets() {
		lits += nw.NetCover(n).LiteralCount()
	}
	return Stats{
		Inputs:   len(nw.inputs),
		Outputs:  len(nw.outputs),
		Gates:    nw.funcNets,
		Levels:   depth,
		Literals: lits,
	}
}
