package bdd

import (
	"fmt"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/netcore"
)

// VarOrder returns a variable order for the network's primary inputs:
// a depth-first walk from the outputs records each input at first visit,
// which interleaves structurally related inputs (e.g. the a/b bits of a
// comparator) — the classic static ordering heuristic.
func VarOrder(nw *netcore.Network) map[string]int {
	order := make(map[string]int)
	visited := make(map[netcore.Net]bool)
	var walk func(n netcore.Net)
	walk = func(n netcore.Net) {
		if visited[n] {
			return
		}
		visited[n] = true
		if nw.NetKind(n) == netcore.NetInput {
			if _, ok := order[nw.NetName(n)]; !ok {
				order[nw.NetName(n)] = len(order)
			}
			return
		}
		for _, f := range nw.NetFanins(n) {
			walk(f)
		}
	}
	for _, o := range nw.Outputs() {
		walk(o)
	}
	// Inputs not in any output cone still need levels.
	for _, in := range nw.Inputs() {
		if _, ok := order[nw.NetName(in)]; !ok {
			order[nw.NetName(in)] = len(order)
		}
	}
	return order
}

// CompileBoolean builds one BDD per primary output of the Boolean network
// under the given input-name-to-level order.
func CompileBoolean(m *Manager, nw *netcore.Network, varLevel map[string]int) ([]Ref, error) {
	refs := make(map[netcore.Net]Ref)
	for _, in := range nw.Inputs() {
		level, ok := varLevel[nw.NetName(in)]
		if !ok {
			return nil, fmt.Errorf("bdd: no level for input %s", nw.NetName(in))
		}
		v, err := m.Var(level)
		if err != nil {
			return nil, err
		}
		refs[in] = v
	}
	order, err := nw.TopoNets()
	if err != nil {
		return nil, err
	}
	for _, n := range order {
		if nw.NetKind(n) != netcore.NetFunc {
			continue
		}
		fanins := make([]Ref, 0, len(nw.NetFanins(n)))
		for _, f := range nw.NetFanins(n) {
			fanins = append(fanins, refs[f])
		}
		phases, nCubes, width := nw.NetCubes(n)
		r, err := coverBDD(m, phases, nCubes, width, fanins)
		if err != nil {
			return nil, err
		}
		refs[n] = r
	}
	out := make([]Ref, len(nw.Outputs()))
	for i, o := range nw.Outputs() {
		out[i] = refs[o]
	}
	return out, nil
}

// coverBDD builds the OR-of-cubes function over the fanin BDDs; the cover
// is the net's phase slab, nCubes rows of width phases.
func coverBDD(m *Manager, phases []logic.Phase, nCubes, width int, fanins []Ref) (Ref, error) {
	result := False
	for c := 0; c < nCubes; c++ {
		term := True
		for i, ph := range phases[c*width : (c+1)*width] {
			var lit Ref
			var err error
			switch ph {
			case logic.Pos:
				lit = fanins[i]
			case logic.Neg:
				lit, err = m.Not(fanins[i])
				if err != nil {
					return False, err
				}
			default:
				continue
			}
			term, err = m.And(term, lit)
			if err != nil {
				return False, err
			}
			if term == False {
				break
			}
		}
		var err error
		result, err = m.Or(result, term)
		if err != nil {
			return False, err
		}
		if result == True {
			break
		}
	}
	return result, nil
}

// CompileThreshold builds one BDD per primary output of the threshold
// network under the given input-name-to-level order, using the
// running-sum construction for each LTG.
func CompileThreshold(m *Manager, tn *core.Network, varLevel map[string]int) ([]Ref, error) {
	refs := make(map[string]Ref)
	for _, in := range tn.Inputs {
		level, ok := varLevel[in]
		if !ok {
			return nil, fmt.Errorf("bdd: no level for input %s", in)
		}
		v, err := m.Var(level)
		if err != nil {
			return nil, err
		}
		refs[in] = v
	}
	for _, g := range tn.Gates {
		fanins := make([]Ref, len(g.Inputs))
		for i, in := range g.Inputs {
			fanins[i] = refs[in]
		}
		r, err := m.Threshold(fanins, g.Weights, g.T)
		if err != nil {
			return nil, err
		}
		refs[g.Name] = r
	}
	out := make([]Ref, len(tn.Outputs))
	for i, o := range tn.Outputs {
		r, ok := refs[o]
		if !ok {
			return nil, fmt.Errorf("bdd: output %s is undriven", o)
		}
		out[i] = r
	}
	return out, nil
}
