// Package netcore is the structurally-hashed network core: a flat,
// arena-allocated store of Boolean-network nodes addressed by int32
// handles instead of per-node pointers, in the style of the strashed node
// stores of the EPFL logic-synthesis libraries (mockturtle) and Cirbo's
// arena circuit representation.
//
// Two layers share one arena:
//
//   - Handles name structural classes: creating the same (cover, fanins)
//     twice returns the same Handle, constant covers fold to the shared
//     constant nodes, and identity covers fold to the fanin's handle.
//     Handle fanins and cover phases live in shared slabs, so a network
//     is a few large allocations instead of one per node.
//
//   - Nets name signals: one Net per named node of the source network,
//     carrying the name, the fanin Net list and the cover exactly as
//     written. The net layer is what optimization passes and the
//     threshold synthesizer walk — its fanout counts and iteration order
//     reproduce the pointer-based internal/network semantics exactly,
//     which is what keeps synthesis output byte-identical — while the
//     handle layer underneath detects structural duplicates and powers
//     cut enumeration and window truth tables.
//
// Nodes are reference counted: killing a net releases its handle, and a
// handle reaching zero references releases its fanins recursively (dead
// slots are skipped by iteration and reclaimed by Compact-free rebuilds
// such as Rehash).
package netcore

import (
	"fmt"
	"strings"

	"tels/internal/logic"
)

// Handle addresses one structural node in the arena.
type Handle int32

// Net addresses one named signal.
type Net int32

// Reserved handles and the invalid sentinels.
const (
	Const0        Handle = 0 // the constant-0 node
	Const1        Handle = 1 // the constant-1 node
	InvalidHandle Handle = -1
	InvalidNet    Net    = -1
)

// Node kinds (internal).
const (
	kindConst uint8 = iota
	kindInput
	kindFunc
	kindDead
)

// Net kinds.
const (
	// NetInput is a primary-input signal.
	NetInput uint8 = iota
	// NetFunc is an internal signal with a cover over its fanins.
	NetFunc
	netDead
)

// node is one arena slot. Fanins and cover phases live in shared slabs so
// the struct holds only offsets; refs counts fanin references from live
// nodes plus live nets whose function this node is.
type node struct {
	kind     uint8
	level    int32
	refs     int32
	nFanin   int32
	faninOff int32
	nCubes   int32
	coverOff int32
	hash     uint64
	next     int32 // strash bucket chain (-1 ends)
	input    int32 // PI ordinal for kindInput
}

type netRec struct {
	name     string
	kind     uint8
	h        Handle
	refs     int32 // fanin references from live nets (per position) + output marks
	nFanin   int32
	faninOff int32
	nCubes   int32
	coverOff int32
	outCnt   int32 // occurrences in the outputs list (ReplaceNet can stack them)
}

// Network is an arena-backed multi-output Boolean network.
type Network struct {
	Name string

	// Structural arena.
	nodes   []node
	fanins  []Handle      // handle fanin slab
	phases  []logic.Phase // cover slab: nCubes x nFanin phases per cover
	strash  map[uint64]int32
	dedups  int  // creations answered by an existing handle
	folds   int  // creations folded to a constant or a fanin
	stale   bool // net mutations since the last handle rebuild
	deadCnt int

	// Reusable creation-path buffers.
	scratchPh []logic.Phase
	scratchH  []Handle

	// Net layer.
	nets     []netRec
	netFan   []Net // net fanin slab
	byName   map[string]Net
	inputs   []Net
	outputs  []Net
	funcNets int            // live NetFunc count: O(1) GateCount
	suffix   map[string]int // FreshName next-suffix cache
}

// New returns an empty network with the shared constant nodes in place.
func New(name string) *Network {
	nw := &Network{
		Name:   name,
		strash: make(map[uint64]int32),
		byName: make(map[string]Net),
		suffix: make(map[string]int),
	}
	// Handles 0 and 1 are the constants; they are never dead.
	nw.nodes = append(nw.nodes,
		node{kind: kindConst, next: -1, refs: 1},
		node{kind: kindConst, next: -1, refs: 1})
	return nw
}

// ---------------------------------------------------------------------------
// Handle layer: arena, structural hashing, reference counts.

// LiveHandles returns the number of live structural nodes (constants
// included).
func (nw *Network) LiveHandles() int { return len(nw.nodes) - nw.deadCnt }

// DedupCount returns how many node creations were answered by an already
// existing handle (structural duplicates detected on creation).
func (nw *Network) DedupCount() int { return nw.dedups }

// FoldCount returns how many node creations folded to a constant or to a
// fanin handle (constant or identity covers).
func (nw *Network) FoldCount() int { return nw.folds }

// HandleFanins returns the fanin handles of h. The slice aliases the
// arena slab and must not be modified.
func (nw *Network) HandleFanins(h Handle) []Handle {
	nd := &nw.nodes[h]
	return nw.fanins[nd.faninOff : nd.faninOff+nd.nFanin]
}

// HandleIsInput reports whether h is a primary-input node.
func (nw *Network) HandleIsInput(h Handle) bool { return nw.nodes[h].kind == kindInput }

// HandleIsConst reports whether h is one of the constant nodes.
func (nw *Network) HandleIsConst(h Handle) bool { return nw.nodes[h].kind == kindConst }

// coverOf returns the phase slab of the node's cover.
func (nw *Network) nodeCover(h Handle) (phases []logic.Phase, nCubes, width int) {
	nd := &nw.nodes[h]
	w := int(nd.nFanin)
	return nw.phases[nd.coverOff : nd.coverOff+nd.nCubes*nd.nFanin], int(nd.nCubes), w
}

func hashCover(fanins []Handle, phases []logic.Phase) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(len(fanins))) * prime64
	for _, f := range fanins {
		h = (h ^ uint64(uint32(f))) * prime64
	}
	h = (h ^ 0xabcd) * prime64
	for _, p := range phases {
		h = (h ^ uint64(p)) * prime64
	}
	return h
}

// newInputHandle creates a fresh primary-input node with the given ordinal.
func (nw *Network) newInputHandle(ordinal int) Handle {
	h := Handle(len(nw.nodes))
	nw.nodes = append(nw.nodes, node{kind: kindInput, next: -1, input: int32(ordinal)})
	return h
}

// strashFunc interns the (fanins, cover) pair, folding constants and
// identities, and returns the structural handle plus whether the returned
// node's own cover bytes equal the requested cover (false on folds).
// Cover phases are laid out cube-major with the given width
// (= len(fanins)); on a strash miss they are copied into the slab.
func (nw *Network) strashFunc(fanins []Handle, phases []logic.Phase, nCubes int) (Handle, bool) {
	width := len(fanins)
	// Syntactic constant folds, mirroring the pointer network's nodeConst
	// view: no cubes is 0, any universal cube is 1.
	if nCubes == 0 {
		nw.folds++
		return Const0, false
	}
	universe := false
	for c := 0; c < nCubes; c++ {
		u := true
		for i := 0; i < width; i++ {
			if phases[c*width+i] != logic.DC {
				u = false
				break
			}
		}
		if u {
			universe = true
			break
		}
	}
	if universe {
		nw.folds++
		return Const1, false
	}
	// Identity fold: a single positive literal is the fanin itself.
	if nCubes == 1 {
		lit, pos := -1, false
		lits := 0
		for i := 0; i < width; i++ {
			if phases[i] != logic.DC {
				lits++
				lit, pos = i, phases[i] == logic.Pos
			}
		}
		if lits == 1 && pos {
			nw.folds++
			return fanins[lit], false
		}
	}
	hash := hashCover(fanins, phases[:nCubes*width])
	for at := nw.strashHead(hash); at >= 0; at = nw.nodes[at].next {
		nd := &nw.nodes[at]
		if nd.kind != kindFunc || nd.hash != hash || int(nd.nFanin) != width || int(nd.nCubes) != nCubes {
			continue
		}
		if !handleSliceEqual(nw.fanins[nd.faninOff:nd.faninOff+nd.nFanin], fanins) {
			continue
		}
		if !phaseSliceEqual(nw.phases[nd.coverOff:nd.coverOff+nd.nCubes*nd.nFanin], phases[:nCubes*width]) {
			continue
		}
		nw.dedups++
		return Handle(at), true
	}
	h := Handle(len(nw.nodes))
	level := int32(0)
	for _, f := range fanins {
		if l := nw.nodes[f].level + 1; l > level {
			level = l
		}
	}
	nd := node{
		kind:     kindFunc,
		level:    level,
		nFanin:   int32(width),
		faninOff: int32(len(nw.fanins)),
		nCubes:   int32(nCubes),
		coverOff: int32(len(nw.phases)),
		hash:     hash,
		next:     nw.strashHeadRaw(hash),
	}
	nw.fanins = append(nw.fanins, fanins...)
	nw.phases = append(nw.phases, phases[:nCubes*width]...)
	nw.nodes = append(nw.nodes, nd)
	nw.strash[hash] = int32(h)
	for _, f := range fanins {
		nw.ref(f)
	}
	return h, true
}

func (nw *Network) strashHead(hash uint64) int32 {
	if at, ok := nw.strash[hash]; ok {
		return at
	}
	return -1
}

func (nw *Network) strashHeadRaw(hash uint64) int32 { return nw.strashHead(hash) }

func (nw *Network) ref(h Handle) { nw.nodes[h].refs++ }

// deref drops one reference from h, sweeping it (and recursively its
// fanins) from the arena when no references remain.
func (nw *Network) deref(h Handle) {
	nd := &nw.nodes[h]
	nd.refs--
	if nd.refs > 0 || nd.kind != kindFunc {
		return
	}
	// Unlink from the strash chain so the dead shape can be rebuilt fresh.
	if head, ok := nw.strash[nd.hash]; ok {
		if head == int32(h) {
			if nd.next >= 0 {
				nw.strash[nd.hash] = nd.next
			} else {
				delete(nw.strash, nd.hash)
			}
		} else {
			for at := head; at >= 0; at = nw.nodes[at].next {
				if nw.nodes[at].next == int32(h) {
					nw.nodes[at].next = nd.next
					break
				}
			}
		}
	}
	nd.kind = kindDead
	nw.deadCnt++
	for _, f := range nw.HandleFanins(h) {
		nw.deref(f)
	}
}

func handleSliceEqual(a, b []Handle) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func phaseSliceEqual(a, b []logic.Phase) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Net layer: named signals with pointer-network semantics.

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

// NetByName returns the live net with the given name, or InvalidNet.
func (nw *Network) NetByName(name string) Net {
	if n, ok := nw.byName[name]; ok {
		return n
	}
	return InvalidNet
}

// NetHandle returns the structural handle of the net's function,
// recomputing stale handles after net-layer mutations.
func (nw *Network) NetHandle(n Net) Handle {
	if nw.stale {
		nw.Rehash()
	}
	return nw.nets[n].h
}

// AddInput creates a primary-input net. It panics if the name is taken.
func (nw *Network) AddInput(name string) Net {
	nw.mustBeFresh(name)
	h := nw.newInputHandle(len(nw.inputs))
	nw.ref(h)
	n := Net(len(nw.nets))
	nw.nets = append(nw.nets, netRec{name: name, kind: NetInput, h: h})
	nw.byName[name] = n
	nw.inputs = append(nw.inputs, n)
	return n
}

// AddNode creates an internal net computing the cover over the fanins.
// The cover's variable count must equal len(fanins). Structurally
// identical creations share a handle; the net itself is always fresh.
func (nw *Network) AddNode(name string, fanins []Net, cover logic.Cover) Net {
	nw.mustBeFresh(name)
	if cover.N != len(fanins) {
		panic(fmt.Sprintf("netcore: node %s: cover over %d variables with %d fanins",
			name, cover.N, len(fanins)))
	}
	n := Net(len(nw.nets))
	nw.nets = append(nw.nets, netRec{name: name, kind: NetFunc})
	nw.byName[name] = n
	nw.funcNets++
	nw.bindFunction(n, fanins, cover)
	return n
}

// bindFunction installs (fanins, cover) as net n's function, interning the
// shape in the arena and wiring reference counts. When the shape is owned
// by a structural node (miss or dedup) the net shares that node's phase
// slab range; folded shapes get their own copy so the net's cover of
// record stays exactly as written.
func (nw *Network) bindFunction(n Net, fanins []Net, cover logic.Cover) {
	r := &nw.nets[n]
	r.faninOff = int32(len(nw.netFan))
	r.nFanin = int32(len(fanins))
	nw.netFan = append(nw.netFan, fanins...)
	for _, f := range fanins {
		nw.nets[f].refs++
	}
	width := len(fanins)
	nw.scratchPh = nw.scratchPh[:0]
	for _, c := range cover.Cubes {
		nw.scratchPh = append(nw.scratchPh, c...)
	}
	nw.scratchH = nw.scratchH[:0]
	for _, f := range fanins {
		nw.scratchH = append(nw.scratchH, nw.nets[f].h)
	}
	h, owned := nw.strashFunc(nw.scratchH, nw.scratchPh, len(cover.Cubes))
	if owned {
		r.coverOff = nw.nodes[h].coverOff
	} else {
		r.coverOff = int32(len(nw.phases))
		nw.phases = append(nw.phases, nw.scratchPh[:len(cover.Cubes)*width]...)
	}
	r.nCubes = int32(len(cover.Cubes))
	r.h = h
	nw.ref(h)
}

// SetFunction replaces net n's function with the cover over the fanins.
// Handle recomputation for downstream nets is deferred to the next
// handle-layer query (Rehash).
func (nw *Network) SetFunction(n Net, fanins []Net, cover logic.Cover) {
	if cover.N != len(fanins) {
		panic(fmt.Sprintf("netcore: SetFunction %s: cover over %d variables with %d fanins",
			nw.nets[n].name, cover.N, len(fanins)))
	}
	if nw.nets[n].kind != NetFunc {
		panic(fmt.Sprintf("netcore: SetFunction on non-internal net %s", nw.nets[n].name))
	}
	nw.unbindFunction(n)
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
	r.h = InvalidHandle
	nw.stale = true
}

func (nw *Network) unbindFunction(n Net) {
	r := &nw.nets[n]
	for _, f := range nw.NetFanins(n) {
		nw.nets[f].refs--
	}
	if r.h >= 0 {
		nw.deref(r.h)
		r.h = InvalidHandle
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

// appendOutput adds an outputs-list entry unconditionally — ReplaceNet and
// the bridge use it to reproduce duplicate output entries exactly.
func (nw *Network) appendOutput(n Net) {
	nw.nets[n].outCnt++
	nw.nets[n].refs++
	nw.outputs = append(nw.outputs, n)
}

func (nw *Network) mustBeFresh(name string) {
	if _, dup := nw.byName[name]; dup {
		panic(fmt.Sprintf("netcore: duplicate net name %q", name))
	}
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

// ReplaceNet substitutes old with repl in every fanin list and the output
// list, then removes old. Mirrors the pointer network's ReplaceNode.
func (nw *Network) ReplaceNet(old, repl Net) {
	for i := range nw.nets {
		r := &nw.nets[i]
		if r.kind == netDead {
			continue
		}
		fans := nw.netFan[r.faninOff : r.faninOff+r.nFanin]
		for j, f := range fans {
			if f == old {
				fans[j] = repl
				nw.nets[old].refs--
				nw.nets[repl].refs++
			}
		}
	}
	if nw.nets[old].outCnt > 0 {
		for i, o := range nw.outputs {
			if o == old {
				nw.outputs[i] = repl
				nw.nets[old].outCnt--
				nw.nets[old].refs--
				nw.nets[repl].outCnt++
				nw.nets[repl].refs++
			}
		}
	}
	nw.removeNet(old)
	nw.stale = true
}

// removeNet kills the net record. The caller must have cleared external
// references (fanin positions, output marks).
func (nw *Network) removeNet(n Net) {
	r := &nw.nets[n]
	if r.kind == netDead {
		return
	}
	nw.unbindFunction(n)
	if r.kind == NetFunc {
		nw.funcNets--
	} else if r.kind == NetInput {
		for i, x := range nw.inputs {
			if x == n {
				nw.inputs = append(nw.inputs[:i], nw.inputs[i+1:]...)
				break
			}
		}
	}
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

// Rehash refreshes stale structural handles bottom-up after net-layer
// mutations. Nets whose shape is unchanged keep their handle (the intern
// lookup finds the existing node); changed nets swap their reference to
// the re-interned shape, sweeping nodes that lose their last reference.
// The dedup/fold counters are preserved — maintenance re-interning is not
// a creation-time dedup.
func (nw *Network) Rehash() {
	if !nw.stale {
		return
	}
	order, err := nw.TopoNets()
	if err != nil {
		panic(err)
	}
	savedDedups, savedFolds := nw.dedups, nw.folds
	var hFanins []Handle
	for _, n := range order {
		r := &nw.nets[n]
		if r.kind != NetFunc {
			continue
		}
		hFanins = hFanins[:0]
		for _, f := range nw.NetFanins(n) {
			hFanins = append(hFanins, nw.nets[f].h)
		}
		phases, nCubes, _ := nw.NetCubes(n)
		h, _ := nw.strashFunc(hFanins, phases, nCubes)
		if h != r.h {
			nw.ref(h)
			if r.h >= 0 {
				nw.deref(r.h)
			}
			r.h = h
		}
	}
	nw.dedups, nw.folds = savedDedups, savedFolds
	nw.stale = false
}

// Levels returns each live net's level (inputs at 0) and the depth.
func (nw *Network) Levels() ([]int32, int) {
	order, err := nw.TopoNets()
	if err != nil {
		panic(err)
	}
	levels := make([]int32, len(nw.nets))
	depth := int32(0)
	for _, n := range order {
		if nw.nets[n].kind == NetInput {
			continue
		}
		l := int32(0)
		for _, f := range nw.NetFanins(n) {
			if levels[f]+1 > l {
				l = levels[f] + 1
			}
		}
		levels[n] = l
		if l > depth {
			depth = l
		}
	}
	return levels, int(depth)
}

// Eval computes every live net's value under the input assignment.
func (nw *Network) Eval(inputs map[string]bool) (map[string]bool, error) {
	order, err := nw.TopoNets()
	if err != nil {
		return nil, err
	}
	values := make([]bool, len(nw.nets))
	out := make(map[string]bool, len(order))
	var assign []bool
	for _, n := range order {
		r := &nw.nets[n]
		if r.kind == NetInput {
			v, ok := inputs[r.name]
			if !ok {
				return nil, fmt.Errorf("netcore %s: no value for input %s", nw.Name, r.name)
			}
			values[n] = v
			out[r.name] = v
			continue
		}
		fans := nw.NetFanins(n)
		assign = assign[:0]
		for _, f := range fans {
			assign = append(assign, values[f])
		}
		phases, nCubes, width := nw.NetCubes(n)
		v := evalCover(phases, nCubes, width, assign)
		values[n] = v
		out[r.name] = v
	}
	return out, nil
}

// evalCover evaluates a slab cover on one assignment.
func evalCover(phases []logic.Phase, nCubes, width int, assign []bool) bool {
	for c := 0; c < nCubes; c++ {
		row := phases[c*width : (c+1)*width]
		ok := true
		for i, p := range row {
			if (p == logic.Pos && !assign[i]) || (p == logic.Neg && assign[i]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Stats summarizes the network.
type Stats struct {
	Inputs   int
	Outputs  int
	Gates    int
	Levels   int
	Literals int
	Handles  int // live structural nodes
	Dedups   int // creations answered by strash
}

// Stats computes summary statistics.
func (nw *Network) Stats() Stats {
	_, depth := nw.Levels()
	lits := 0
	for i := range nw.nets {
		if nw.nets[i].kind != NetFunc {
			continue
		}
		phases, _, _ := nw.NetCubes(Net(i))
		for _, p := range phases {
			if p != logic.DC {
				lits++
			}
		}
	}
	return Stats{
		Inputs:   len(nw.inputs),
		Outputs:  len(nw.outputs),
		Gates:    nw.funcNets,
		Levels:   depth,
		Literals: lits,
		Handles:  nw.LiveHandles(),
		Dedups:   nw.dedups,
	}
}
