package netcore

import (
	"fmt"

	"tels/internal/network"
)

// FromNetwork builds an arena network from a pointer network, preserving
// everything passes can observe: names, creation order (which extraction
// leaves non-topological — fanin lists may point at later-created
// divisors), fanin order, cover cubes exactly as written, and the output
// list including duplicate entries.
func FromNetwork(src *network.Network) *Network {
	nw := New(src.Name)
	// Phase 1: reserve every net in creation order so Net indices follow
	// the source order even when fanins are created later.
	mapping := make(map[*network.Node]Net, len(src.Nodes()))
	for _, n := range src.Nodes() {
		if n.Kind == network.Input {
			mapping[n] = nw.AddInput(n.Name)
			continue
		}
		mapping[n] = nw.newFuncNet(n.Name)
	}
	// Phase 2: bind functions in topological order, which rejects a cyclic
	// source before any pass walks it.
	order, err := src.TopoSort()
	if err != nil {
		panic(fmt.Sprintf("netcore: FromNetwork(%s): %v", src.Name, err))
	}
	var fanins []Net
	for _, n := range order {
		if n.Kind != network.Internal {
			continue
		}
		fanins = fanins[:0]
		for _, f := range n.Fanins {
			fanins = append(fanins, mapping[f])
		}
		nw.bindFunction(mapping[n], fanins, n.Cover)
	}
	for _, o := range src.Outputs {
		nw.appendOutput(mapping[o])
	}
	return nw
}

// ToNetwork converts back to a pointer network, reproducing creation
// order, names, fanin order, covers, and the exact output list. The
// round trip FromNetwork→ToNetwork is the identity on everything the
// optimization passes and the synthesizer observe.
func (nw *Network) ToNetwork() *network.Network {
	out := network.New(nw.Name)
	mapping := make(map[Net]*network.Node, len(nw.nets))
	for i := range nw.nets {
		r := &nw.nets[i]
		switch r.kind {
		case NetInput:
			mapping[Net(i)] = out.AddInput(r.name)
		case NetFunc:
			mapping[Net(i)] = out.AddShell(r.name)
		}
	}
	order, err := nw.TopoNets()
	if err != nil {
		panic(fmt.Sprintf("netcore: ToNetwork(%s): %v", nw.Name, err))
	}
	for _, n := range order {
		if nw.nets[n].kind != NetFunc {
			continue
		}
		fans := nw.NetFanins(n)
		fanins := make([]*network.Node, len(fans))
		for i, f := range fans {
			fanins[i] = mapping[f]
		}
		out.BindNode(mapping[n], fanins, nw.NetCover(n))
	}
	for _, o := range nw.outputs {
		out.Outputs = append(out.Outputs, mapping[o])
	}
	return out
}
