package opt

import (
	"fmt"

	"tels/internal/logic"
	"tels/internal/netcore"
)

// TechDecomp rebuilds the network as simple gates — AND, OR, inverters and
// buffers — with every gate's fanin bounded by maxFanin (≥ 2). Negative
// literals are realized by explicit shared inverter gates, matching the
// way the paper's one-to-one baseline counts inverters as gates (its
// motivational example counts "seven gates ... including the inverter").
// The returned network has the same primary inputs and output names.
// Generated gates never take a name the source uses, so every source node
// finds its own name free for its root gate, constant or output buffer.
func TechDecomp(nw *netcore.Network, maxFanin int) *netcore.Network {
	if maxFanin < 2 {
		panic(fmt.Sprintf("opt: TechDecomp fanin restriction %d < 2", maxFanin))
	}
	out := netcore.New(nw.Name)
	// fresh is out.FreshName that also skips the source's names, so a
	// source node visited later still finds its own name free.
	fresh := func(base string) string {
		name := base
		for i := 0; out.NetByName(name) != netcore.InvalidNet || nw.NetByName(name) != netcore.InvalidNet; i++ {
			name = fmt.Sprintf("%s_%d", base, i)
		}
		return name
	}
	// tree reduces lits to one gate of fanin ≤ maxFanin. Its root is named
	// root when that is given, else prefix plus the next serial.
	tree := func(lits []litRef, coverOf func([]litRef) logic.Cover, prefix, root string) netcore.Net {
		level, serial := reduceLits(out, lits, maxFanin, coverOf, prefix, fresh)
		if root == "" {
			root = fresh(fmt.Sprintf("%s%d", prefix, serial))
		}
		return addLitGate(out, root, level, coverOf)
	}
	mapping := make(map[netcore.Net]netcore.Net) // source net -> new signal
	inverters := make(map[netcore.Net]netcore.Net)
	invOf := func(sig netcore.Net) netcore.Net {
		if inv, ok := inverters[sig]; ok {
			return inv
		}
		inv := out.AddNode(fresh(out.NetName(sig)+"_n"), []netcore.Net{sig}, logic.MustCover("0"))
		inverters[sig] = inv
		return inv
	}

	for _, in := range nw.Inputs() {
		mapping[in] = out.AddInput(nw.NetName(in))
	}
	order, err := nw.TopoNets()
	if err != nil {
		panic(err)
	}
	for _, n := range order {
		if nw.NetKind(n) != netcore.NetFunc {
			continue
		}
		name, cv := nw.NetName(n), nw.NetCover(n)
		if cv.IsZero() || cv.HasUniverse() {
			cover := logic.Zero(0)
			if cv.HasUniverse() {
				cover = logic.One(0)
			}
			mapping[n] = out.AddNode(name, nil, cover)
			continue
		}
		// One signal per cube: an AND tree over its (possibly inverted)
		// literals; then an OR tree over the cubes.
		fanins := nw.NetFanins(n)
		var cubeSignals []litRef
		for ci, cube := range cv.Cubes {
			var ins []litRef
			for i, p := range cube {
				switch p {
				case logic.Pos:
					ins = append(ins, litRef{mapping[fanins[i]], logic.Pos})
				case logic.Neg:
					ins = append(ins, litRef{invOf(mapping[fanins[i]]), logic.Pos})
				}
			}
			if len(ins) == 1 {
				cubeSignals = append(cubeSignals, ins[0])
				continue
			}
			root := ""
			if len(cv.Cubes) == 1 {
				root = name // single-cube node: the AND root takes its name
			}
			g := tree(ins, andOfLits, fmt.Sprintf("%s_c%d_a", name, ci), root)
			cubeSignals = append(cubeSignals, litRef{g, logic.Pos})
		}
		if len(cubeSignals) == 1 {
			mapping[n] = cubeSignals[0].net
		} else {
			mapping[n] = tree(cubeSignals, orOfLits, name+"_o", name)
		}
	}

	// Outputs keep their names: if the final signal already has the right
	// name it is used directly; a shared inverter is copied under the
	// output's name (the shared one goes if nothing else reads it);
	// otherwise a named buffer is added.
	for _, o := range nw.Outputs() {
		sig, name := mapping[o], nw.NetName(o)
		if out.NetName(sig) != name {
			if in := out.NetFanins(sig); len(in) == 1 && inverters[in[0]] == sig {
				sig = out.AddNode(name, in, logic.MustCover("0"))
			} else {
				sig = out.AddNode(name, []netcore.Net{sig}, logic.MustCover("1"))
			}
		}
		out.MarkOutput(sig)
	}
	out.RemoveDangling()
	return out
}

// DecomposeLargeCore splits any net whose fanin count exceeds maxFanin
// into a tree of smaller nets, leaving compliant nets untouched. Used as
// a TELS pre-pass so collapsed functions stay within the truth-table
// engine. Nets are visited once in creation order: a split net and the
// nets it creates all comply. Returns the number of nets decomposed.
func DecomposeLargeCore(nw *netcore.Network, maxFanin int) int {
	if maxFanin < 2 {
		panic("opt: DecomposeLargeCore needs maxFanin >= 2")
	}
	changed := 0
	for _, n := range nw.InternalNets() {
		if len(nw.NetFanins(n)) > maxFanin {
			decomposeNet(nw, n, maxFanin)
			changed++
		}
	}
	return changed
}

// litRef is one literal of a cube being decomposed.
type litRef struct {
	net   netcore.Net
	phase logic.Phase
}

// decomposeNet rewrites n as an OR of cube-AND subnets, splitting wide
// cubes and wide ORs into trees. Negative literals stay as cover phases
// (TechDecomp, which feeds the one-to-one mapper, realizes them as
// explicit inverter gates instead).
func decomposeNet(nw *netcore.Network, n netcore.Net, maxFanin int) {
	name := nw.NetName(n)
	fanins := append([]netcore.Net(nil), nw.NetFanins(n)...)
	var cubeSignals []litRef
	for ci, cube := range nw.NetCover(n).Cubes {
		var lits []litRef
		for i, p := range cube {
			if p != logic.DC {
				lits = append(lits, litRef{fanins[i], p})
			}
		}
		if len(lits) == 0 {
			// Universal cube: the net is constant 1.
			nw.SetFunction(n, nil, logic.One(0))
			return
		}
		if len(lits) == 1 {
			cubeSignals = append(cubeSignals, lits[0])
			continue
		}
		base := fmt.Sprintf("%s_k%d", name, ci)
		level, _ := reduceLits(nw, lits, maxFanin, andOfLits, base+"_d", nw.FreshName)
		g := addLitGate(nw, nw.FreshName(base+"_dc"), level, andOfLits)
		cubeSignals = append(cubeSignals, litRef{g, logic.Pos})
	}
	if len(cubeSignals) == 0 {
		nw.SetFunction(n, nil, logic.Zero(0))
		return
	}
	// OR the cube signals in trees of fanin ≤ maxFanin, rewriting n itself
	// as the final OR (or single cube).
	level, _ := reduceLits(nw, cubeSignals, maxFanin, orOfLits, name+"_or", nw.FreshName)
	nf, cv := litGate(level, orOfLits)
	mergeDuplicateFaninsCore(&nf, &cv)
	nw.SetFunction(n, nf, cv)
}

// reduceLits combines literals maxFanin at a time with new gates, named
// by fresh from prefix plus a serial, until at most maxFanin remain. It
// returns the remaining literals and the next unused serial.
func reduceLits(nw *netcore.Network, level []litRef, maxFanin int,
	coverOf func([]litRef) logic.Cover, prefix string, fresh func(string) string) ([]litRef, int) {
	serial := 0
	for len(level) > maxFanin {
		var next []litRef
		for i := 0; i < len(level); i += maxFanin {
			group := level[i:min(i+maxFanin, len(level))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			g := addLitGate(nw, fresh(fmt.Sprintf("%s%d", prefix, serial)), group, coverOf)
			serial++
			next = append(next, litRef{g, logic.Pos})
		}
		level = next
	}
	return level, serial
}

// addLitGate creates a net combining the literals with coverOf.
func addLitGate(nw *netcore.Network, name string, lits []litRef, coverOf func([]litRef) logic.Cover) netcore.Net {
	fanins, cv := litGate(lits, coverOf)
	return nw.AddNode(name, fanins, cv)
}

// litGate returns the fanins and cover of a gate over the literals.
func litGate(lits []litRef, coverOf func([]litRef) logic.Cover) ([]netcore.Net, logic.Cover) {
	fanins := make([]netcore.Net, len(lits))
	for k, lr := range lits {
		fanins[k] = lr.net
	}
	return fanins, coverOf(lits)
}

// andOfLits is the single cube of the literals.
func andOfLits(lits []litRef) logic.Cover {
	cube := logic.NewCube(len(lits))
	for k, lr := range lits {
		cube[k] = lr.phase
	}
	cv := logic.NewCover(len(lits))
	cv.AddCube(cube)
	return cv
}

// orOfLits has one single-literal cube per literal.
func orOfLits(lits []litRef) logic.Cover {
	cv := logic.NewCover(len(lits))
	for k, lr := range lits {
		c := logic.NewCube(len(lits))
		c[k] = lr.phase
		cv.AddCube(c)
	}
	return cv
}
