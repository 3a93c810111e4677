package opt

import (
	"slices"

	"tels/internal/logic"
	"tels/internal/netcore"
	"tels/internal/truth"
)

// SimplifyMaxVars bounds the fanin count for exact truth-table node
// simplification, the one two-level minimizer. SimplifyNodesCore leaves a
// wider net's cover as it is (sweep has already removed single-cube
// containment), and the don't-care passes skip it. The cost of exact
// minimization climbs steeply with the width; BenchmarkSimplifyWideNode
// times the worst case at this one, a dense random table.
const SimplifyMaxVars = 14

// EliminateMaxSupport bounds the combined support when collapsing a net
// into a fanout during EliminateCore.
const EliminateMaxSupport = 10

// SimplifyNodesCore replaces the cover of each net of at most
// SimplifyMaxVars fanins with an irredundant prime cover of its local
// function and drops fanins the function does not depend on. It is the
// two-level-minimization step of the script pipelines (SIS simplify
// without external don't-cares). Returns the number of nets changed.
func SimplifyNodesCore(nw *netcore.Network) int {
	changed := 0
	for _, n := range nw.InternalNets() {
		fanins := nw.NetFanins(n)
		width := len(fanins)
		if width > SimplifyMaxVars {
			continue
		}
		cov := nw.NetCover(n)
		tt := truth.FromCover(cov)
		if isConst, v := tt.IsConst(); isConst {
			if width == 0 {
				continue
			}
			if v {
				nw.SetFunction(n, nil, logic.One(0))
			} else {
				nw.SetFunction(n, nil, logic.Zero(0))
			}
			changed++
			continue
		}
		sup := tt.Support()
		reduced := tt
		nf := fanins
		if len(sup) != width {
			reduced = tt.Project(sup)
			nf = make([]netcore.Net, len(sup))
			for i, v := range sup {
				nf[i] = fanins[v]
			}
		}
		cover := reduced.MinimalSOP()
		if len(nf) != width || cover.LiteralCount() < cov.LiteralCount() ||
			len(cover.Cubes) < len(cov.Cubes) {
			nw.SetFunction(n, nf, cover)
			changed++
		}
	}
	if changed > 0 {
		nw.RemoveDangling()
	}
	return changed
}

// dropUnusedFanins projects the cover onto the fanins it mentions.
func dropUnusedFanins(fanins []netcore.Net, cover logic.Cover) ([]netcore.Net, logic.Cover) {
	sup := cover.Support()
	if len(sup) == len(fanins) {
		return fanins, cover
	}
	nf := make([]netcore.Net, len(sup))
	keep := make(map[int]int, len(sup))
	for i, v := range sup {
		nf[i] = fanins[v]
		keep[v] = i
	}
	reduced := logic.NewCover(len(sup))
	for _, c := range cover.Cubes {
		d := logic.NewCube(len(sup))
		for v, p := range c {
			if p != logic.DC {
				d[keep[v]] = p
			}
		}
		reduced.AddCube(d)
	}
	return nf, reduced
}

// EliminateCore collapses low-value nets into their fanouts, mirroring
// the SIS eliminate command. A net's value is the literal-count change its
// elimination would cause; nets with value at most threshold are
// collapsed. Output nets are kept. Each pass builds a consumer index
// once, collapses every qualifying net whose neighbourhood has not been
// touched this pass, and repeats to a fixpoint. Returns the number of
// nets eliminated.
func EliminateCore(nw *netcore.Network, threshold int) int {
	eliminated := 0
	const maxPasses = 40
	for pass := 0; pass < maxPasses; pass++ {
		outputs := make(map[netcore.Net]bool, len(nw.Outputs()))
		for _, o := range nw.Outputs() {
			outputs[o] = true
		}
		internals := nw.InternalNets()
		consumers := make(map[netcore.Net][]netcore.Net)
		for _, m := range internals {
			seen := map[netcore.Net]bool{}
			for _, f := range nw.NetFanins(m) {
				if nw.NetKind(f) == netcore.NetFunc && !seen[f] {
					seen[f] = true
					consumers[f] = append(consumers[f], m)
				}
			}
		}
		dirty := make(map[netcore.Net]bool)
		changed := 0
		for _, n := range internals {
			if outputs[n] || dirty[n] || len(nw.NetFanins(n)) == 0 {
				continue
			}
			cons := consumers[n]
			if len(cons) == 0 {
				continue
			}
			refs := 0
			collapsible := true
			supports := make([][]netcore.Net, len(cons))
			for i, m := range cons {
				if dirty[m] {
					collapsible = false
					break
				}
				if supports[i] = mergedSupport(nw, m, n); len(supports[i]) > EliminateMaxSupport {
					collapsible = false
					break
				}
				phases, nCubes, width := nw.NetCubes(m)
				for j, f := range nw.NetFanins(m) {
					if f != n {
						continue
					}
					for c := 0; c < nCubes; c++ {
						if phases[c*width+j] != logic.DC {
							refs++
						}
					}
				}
			}
			if !collapsible || refs == 0 {
				continue
			}
			L := coverLiteralCount(nw, n)
			if refs*L-L-refs > threshold {
				continue
			}
			dirty[n] = true
			for i, m := range cons {
				collapseFanin(nw, m, supports[i])
				dirty[m] = true
			}
			changed++
			eliminated++
		}
		nw.RemoveDangling()
		if changed == 0 {
			return eliminated
		}
	}
	return eliminated
}

// coverLiteralCount counts non-DC positions of a net's cover on the slab.
func coverLiteralCount(nw *netcore.Network, n netcore.Net) int {
	phases, _, _ := nw.NetCubes(n)
	lits := 0
	for _, p := range phases {
		if p != logic.DC {
			lits++
		}
	}
	return lits
}

// mergedSupport is net m's support once fanin n is replaced by n's
// fanins: m's other fanins, then n's, each once.
func mergedSupport(nw *netcore.Network, m, n netcore.Net) []netcore.Net {
	var support []netcore.Net
	for _, f := range nw.NetFanins(m) {
		if f != n && !slices.Contains(support, f) {
			support = append(support, f)
		}
	}
	for _, f := range nw.NetFanins(n) {
		if !slices.Contains(support, f) {
			support = append(support, f)
		}
	}
	return support
}

// collapseFanin rewrites net m as its exact function over support, a cut
// of m's cone such as mergedSupport's, which substitutes a fanin's
// function into m.
func collapseFanin(nw *netcore.Network, m netcore.Net, support []netcore.Net) {
	tt, err := nw.NetLocalTT(m, support)
	if err != nil {
		panic(err)
	}
	sup := tt.Support()
	reduced := tt
	fanins := support
	if len(sup) != len(support) {
		reduced = tt.Project(sup)
		fanins = make([]netcore.Net, len(sup))
		for i, v := range sup {
			fanins[i] = support[v]
		}
	}
	if isConst, v := reduced.IsConst(); isConst {
		if v {
			nw.SetFunction(m, nil, logic.One(0))
		} else {
			nw.SetFunction(m, nil, logic.Zero(0))
		}
		return
	}
	nw.SetFunction(m, fanins, reduced.MinimalSOP())
}
