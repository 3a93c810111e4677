package core

import "encoding/binary"

// mergeDuplicates structurally hashes the network's gates and merges
// those with the same threshold, weights and drivers, rewiring fanouts to
// the survivor. Distinct synthesis cones can emit identical split gates;
// merging them never changes behaviour. Returns the number of gates
// removed.
//
// One walk over Gates finds every merge: a gate is keyed on its drivers'
// numbers, and every driver is settled, merged or kept, before its
// readers. The survivor rules:
//   - a non-output gate merges into the first gate of its class;
//   - two output gates both survive;
//   - an output gate that repeats an earlier non-output gate merges into
//     it, and the earlier gate takes the output's name. It keeps its
//     place, so Gates stays topological.
func (tn *Network) mergeDuplicates() int {
	isOutput := make(map[string]bool, len(tn.Outputs))
	for _, o := range tn.Outputs {
		isOutput[o] = true
	}
	// num numbers each signal: input i is -1-i, kept gate k is k, and a
	// removed gate has its survivor's number.
	num := make(map[string]int, len(tn.Inputs)+len(tn.Gates))
	for i, in := range tn.Inputs {
		num[in] = -1 - i
	}
	first := make(map[string]int, len(tn.Gates))
	kept := tn.Gates[:0]
	var key []byte
	for _, g := range tn.Gates {
		key = binary.AppendVarint(key[:0], int64(g.T))
		for i, in := range g.Inputs {
			key = binary.AppendVarint(key, int64(g.Weights[i]))
			key = binary.AppendVarint(key, int64(num[in]))
		}
		k, dup := first[string(key)]
		if dup && !(isOutput[g.Name] && isOutput[kept[k].Name]) {
			delete(tn.signals, g.Name)
			if survivor := kept[k]; isOutput[g.Name] {
				delete(tn.signals, survivor.Name)
				survivor.Name = g.Name
				tn.signals[g.Name] = survivor
			}
			num[g.Name] = k
			continue
		}
		if !dup {
			first[string(key)] = len(kept)
		}
		num[g.Name] = len(kept)
		kept = append(kept, g)
	}
	removed := len(tn.Gates) - len(kept)
	for _, g := range kept {
		for i, in := range g.Inputs {
			if k := num[in]; k >= 0 {
				g.Inputs[i] = kept[k].Name
			}
		}
	}
	tn.Gates = kept
	return removed
}
