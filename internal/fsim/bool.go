package fsim

import (
	"tels/internal/logic"
	"tels/internal/netcore"
)

// boolLit is one literal of a compiled cube: the value slot of the fanin
// and the word XORed into its value (all ones for a negative literal).
type boolLit struct {
	slot int
	inv  uint64
}

// boolCube is a compiled product term: the AND of its literals (empty =
// the universal cube).
type boolCube []boolLit

// boolNode is one internal node: the OR of its cubes, written to slot.
type boolNode struct {
	cubes []boolCube
	slot  int
}

// BoolSim evaluates a Boolean network one 64-vector word at a time.
// Compile once, evaluate many batches; not safe for concurrent use
// (buffers are reused).
type BoolSim struct {
	inputs   []string
	inSlots  []int
	nodes    []boolNode
	outSlots []int
	vals     []uint64   // [slot], rewritten per word
	out      [][]uint64 // [output][word], reused across Eval calls
}

// CompileBool flattens the network into slot-addressed packed-cover form.
func CompileBool(nw *netcore.Network) (*BoolSim, error) {
	order, err := nw.TopoNets()
	if err != nil {
		return nil, err
	}
	s := &BoolSim{}
	slot := make(map[netcore.Net]int, len(order))
	for _, n := range order {
		slot[n] = len(slot)
	}
	s.vals = make([]uint64, len(slot))
	for _, in := range nw.Inputs() {
		s.inputs = append(s.inputs, nw.NetName(in))
		s.inSlots = append(s.inSlots, slot[in])
	}
	for _, n := range order {
		if nw.NetKind(n) != netcore.NetFunc {
			continue
		}
		bn := boolNode{slot: slot[n]}
		fanins := nw.NetFanins(n)
		phases, nCubes, width := nw.NetCubes(n)
		for c := 0; c < nCubes; c++ {
			cube := make(boolCube, 0, width)
			for i, p := range phases[c*width : (c+1)*width] {
				switch p {
				case logic.Pos:
					cube = append(cube, boolLit{slot: slot[fanins[i]]})
				case logic.Neg:
					cube = append(cube, boolLit{slot: slot[fanins[i]], inv: ^uint64(0)})
				}
			}
			bn.cubes = append(bn.cubes, cube)
		}
		s.nodes = append(s.nodes, bn)
	}
	for _, o := range nw.Outputs() {
		s.outSlots = append(s.outSlots, slot[o])
	}
	s.out = make([][]uint64, len(s.outSlots))
	return s, nil
}

// Eval computes the packed outputs ([output][word]) for the batch. The
// returned slices are reused by the next Eval call.
func (s *BoolSim) Eval(b *Batch) ([][]uint64, error) {
	cols, err := b.columns(s.inputs)
	if err != nil {
		return nil, err
	}
	row := b.Words()
	for o := range s.out {
		if cap(s.out[o]) < row {
			s.out[o] = make([]uint64, row)
		}
		s.out[o] = s.out[o][:row]
	}
	// Per word: load the inputs, OR each node's cubes of ANDed literals,
	// and store the outputs. The early exits (dead cube, saturated node)
	// never change the stored word.
	vals := s.vals
	for wi := 0; wi < row; wi++ {
		for i, slot := range s.inSlots {
			vals[slot] = b.words[cols[i]][wi]
		}
		for _, n := range s.nodes {
			var acc uint64
			for _, cube := range n.cubes {
				t := ^uint64(0)
				for _, l := range cube {
					t &= vals[l.slot] ^ l.inv
					if t == 0 {
						break
					}
				}
				acc |= t
				if acc == ^uint64(0) {
					break
				}
			}
			vals[n.slot] = acc
		}
		for o, slot := range s.outSlots {
			s.out[o][wi] = vals[slot]
		}
	}
	return s.out, nil
}
