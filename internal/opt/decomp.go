package opt

import (
	"fmt"

	"tels/internal/logic"
	"tels/internal/network"
)

// TechDecomp rebuilds the network as simple gates — AND, OR, inverters and
// buffers — with every gate's fanin bounded by maxFanin (≥ 2). Negative
// literals are realized by explicit shared inverter gates, matching the
// way the paper's one-to-one baseline counts inverters as gates (its
// motivational example counts "seven gates ... including the inverter").
// The returned network has the same primary inputs and output names.
func TechDecomp(nw *network.Network, maxFanin int) *network.Network {
	if maxFanin < 2 {
		panic(fmt.Sprintf("opt: TechDecomp fanin restriction %d < 2", maxFanin))
	}
	out := network.New(nw.Name)
	mapping := make(map[*network.Node]*network.Node) // old signal -> new signal
	inverters := make(map[*network.Node]*network.Node)

	for _, in := range nw.Inputs {
		mapping[in] = out.AddInput(in.Name)
	}

	invOf := func(sig *network.Node) *network.Node {
		if inv, ok := inverters[sig]; ok {
			return inv
		}
		inv := out.AddNode(out.FreshName(sig.Name+"_n"), []*network.Node{sig},
			logic.MustCover("0"))
		inverters[sig] = inv
		return inv
	}

	andTree := func(base, finalName string, ins []*network.Node) *network.Node {
		return buildTree(out, base+"_a", finalName, ins, maxFanin, andCover)
	}
	orTree := func(base, finalName string, ins []*network.Node) *network.Node {
		return buildTree(out, base+"_o", finalName, ins, maxFanin, orCover)
	}

	order, err := nw.TopoSort()
	if err != nil {
		panic(err)
	}
	for _, n := range order {
		if n.Kind != network.Internal {
			continue
		}
		if isC, v := nodeConst(n); isC {
			cover := logic.Zero(0)
			if v {
				cover = logic.One(0)
			}
			mapping[n] = out.AddNode(out.FreshName(n.Name), nil, cover)
			continue
		}
		// One signal per cube: an AND tree over its (possibly inverted)
		// literals; then an OR tree over the cubes.
		var cubeSignals []*network.Node
		for ci, cube := range n.Cover.Cubes {
			var ins []*network.Node
			for i, p := range cube {
				sig := mapping[n.Fanins[i]]
				switch p {
				case logic.Pos:
					ins = append(ins, sig)
				case logic.Neg:
					ins = append(ins, invOf(sig))
				}
			}
			switch len(ins) {
			case 0:
				// Universal cube: constant 1.
				cubeSignals = append(cubeSignals,
					out.AddNode(out.FreshName(fmt.Sprintf("%s_c%d", n.Name, ci)), nil, logic.One(0)))
				continue
			case 1:
				cubeSignals = append(cubeSignals, ins[0])
				continue
			}
			finalName := ""
			if len(n.Cover.Cubes) == 1 {
				finalName = n.Name // single-cube node: the AND root takes its name
			}
			cubeSignals = append(cubeSignals, andTree(fmt.Sprintf("%s_c%d", n.Name, ci), finalName, ins))
		}
		var result *network.Node
		if len(cubeSignals) == 1 {
			result = cubeSignals[0]
		} else {
			result = orTree(n.Name, n.Name, cubeSignals)
		}
		mapping[n] = result
	}

	// Outputs keep their names: if the final signal already has the right
	// name it is used directly, otherwise a named buffer is added.
	for _, o := range nw.Outputs {
		sig := mapping[o]
		if sig.Name != o.Name && out.Node(o.Name) == nil {
			sig = out.AddNode(o.Name, []*network.Node{sig}, logic.MustCover("1"))
		}
		out.MarkOutput(sig)
	}
	out.RemoveDangling()
	return out
}

func andCover(n int) logic.Cover {
	c := logic.NewCube(n)
	for i := range c {
		c[i] = logic.Pos
	}
	cv := logic.NewCover(n)
	cv.AddCube(c)
	return cv
}

func orCover(n int) logic.Cover {
	cv := logic.NewCover(n)
	for i := 0; i < n; i++ {
		c := logic.NewCube(n)
		c[i] = logic.Pos
		cv.AddCube(c)
	}
	return cv
}

// buildTree reduces ins to one signal with gates of fanin ≤ maxFanin. The
// root gate is named finalName when that name is free (so decomposed nodes
// keep their original names and no output buffers are needed).
func buildTree(out *network.Network, base, finalName string, ins []*network.Node,
	maxFanin int, coverFor func(int) logic.Cover) *network.Node {
	level := ins
	serial := 0
	for len(level) > 1 {
		var next []*network.Node
		for i := 0; i < len(level); i += maxFanin {
			end := i + maxFanin
			if end > len(level) {
				end = len(level)
			}
			group := level[i:end]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			name := ""
			if i == 0 && end == len(level) && finalName != "" && out.Node(finalName) == nil {
				name = finalName // root of the tree
			} else {
				name = out.FreshName(fmt.Sprintf("%s%d", base, serial))
				serial++
			}
			g := out.AddNode(name, group, coverFor(len(group)))
			next = append(next, g)
		}
		level = next
	}
	return level[0]
}

// DecomposeLarge splits any node whose fanin count exceeds maxFanin into a
// tree of smaller nodes, leaving compliant nodes untouched. Used as a
// TELS pre-pass so collapsed functions stay within the truth-table engine.
// Returns the number of nodes decomposed.
func DecomposeLarge(nw *network.Network, maxFanin int) int {
	if maxFanin < 2 {
		panic("opt: DecomposeLarge needs maxFanin >= 2")
	}
	changed := 0
	for {
		var victim *network.Node
		for _, n := range nw.InternalNodes() {
			if len(n.Fanins) > maxFanin {
				victim = n
				break
			}
		}
		if victim == nil {
			return changed
		}
		decomposeNode(nw, victim, maxFanin)
		changed++
	}
}

// decomposeNode rewrites n as an OR of cube-AND subnodes, splitting wide
// cubes and wide ORs into trees. Negative literals stay as cover phases
// (no explicit inverters here, unlike TechDecomp).
func decomposeNode(nw *network.Network, n *network.Node, maxFanin int) {
	type litRef struct {
		node  *network.Node
		phase logic.Phase
	}
	cubeAnd := func(base string, lits []litRef) *network.Node {
		level := lits
		serial := 0
		for len(level) > maxFanin {
			var next []litRef
			for i := 0; i < len(level); i += maxFanin {
				end := i + maxFanin
				if end > len(level) {
					end = len(level)
				}
				group := level[i:end]
				if len(group) == 1 {
					next = append(next, group[0])
					continue
				}
				fanins := make([]*network.Node, len(group))
				cube := logic.NewCube(len(group))
				for k, lr := range group {
					fanins[k] = lr.node
					cube[k] = lr.phase
				}
				cv := logic.NewCover(len(group))
				cv.AddCube(cube)
				g := nw.AddNode(nw.FreshName(fmt.Sprintf("%s_d%d", base, serial)), fanins, cv)
				serial++
				next = append(next, litRef{g, logic.Pos})
			}
			level = next
		}
		fanins := make([]*network.Node, len(level))
		cube := logic.NewCube(len(level))
		for k, lr := range level {
			fanins[k] = lr.node
			cube[k] = lr.phase
		}
		cv := logic.NewCover(len(level))
		cv.AddCube(cube)
		return nw.AddNode(nw.FreshName(base+"_dc"), fanins, cv)
	}

	var cubeSignals []litRef
	for ci, cube := range n.Cover.Cubes {
		var lits []litRef
		for i, p := range cube {
			if p != logic.DC {
				lits = append(lits, litRef{n.Fanins[i], p})
			}
		}
		if len(lits) == 0 {
			// Universal cube: the node is constant 1.
			n.Fanins = nil
			n.Cover = logic.One(0)
			return
		}
		if len(lits) == 1 {
			cubeSignals = append(cubeSignals, lits[0])
			continue
		}
		g := cubeAnd(fmt.Sprintf("%s_k%d", n.Name, ci), lits)
		cubeSignals = append(cubeSignals, litRef{g, logic.Pos})
	}
	if len(cubeSignals) == 0 {
		n.Fanins = nil
		n.Cover = logic.Zero(0)
		return
	}
	// OR the cube signals in trees of fanin ≤ maxFanin, rewriting n itself
	// as the final OR (or single cube).
	level := cubeSignals
	serial := 0
	for len(level) > maxFanin {
		var next []litRef
		for i := 0; i < len(level); i += maxFanin {
			end := i + maxFanin
			if end > len(level) {
				end = len(level)
			}
			group := level[i:end]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			fanins := make([]*network.Node, len(group))
			cv := logic.NewCover(len(group))
			for k, lr := range group {
				fanins[k] = lr.node
				c := logic.NewCube(len(group))
				c[k] = lr.phase
				cv.AddCube(c)
			}
			g := nw.AddNode(nw.FreshName(fmt.Sprintf("%s_or%d", n.Name, serial)), fanins, cv)
			serial++
			next = append(next, litRef{g, logic.Pos})
		}
		level = next
	}
	fanins := make([]*network.Node, len(level))
	cv := logic.NewCover(len(level))
	for k, lr := range level {
		fanins[k] = lr.node
		c := logic.NewCube(len(level))
		c[k] = lr.phase
		cv.AddCube(c)
	}
	n.Fanins = fanins
	n.Cover = cv
	mergeDuplicateFanins(n)
}

// nodeConst reports whether the node's cover is syntactically constant.
func nodeConst(n *network.Node) (isConst, value bool) {
	if n.Kind != network.Internal {
		return false, false
	}
	if n.Cover.IsZero() {
		return true, false
	}
	if n.Cover.HasUniverse() {
		return true, true
	}
	return false, false
}
