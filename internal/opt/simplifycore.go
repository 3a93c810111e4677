package opt

import (
	"tels/internal/logic"
	"tels/internal/netcore"
	"tels/internal/truth"
)

// SimplifyMaxVars bounds the fanin count for exact truth-table node
// simplification. SimplifyNodesCore hands wider nets to the cover-based
// minimizer (simplifyWideCore); the don't-care passes skip them.
const SimplifyMaxVars = 10

// EliminateMaxSupport bounds the combined support when collapsing a net
// into a fanout during EliminateCore.
const EliminateMaxSupport = 10

// SimplifyNodesCore replaces each net's cover with an irredundant prime
// cover of its local function and drops fanins the function does not
// depend on. It is the two-level-minimization step of the script
// pipelines (espresso without external don't-cares). Returns the number
// of nets changed.
func SimplifyNodesCore(nw *netcore.Network) int {
	changed := 0
	for _, n := range nw.InternalNets() {
		fanins := nw.NetFanins(n)
		width := len(fanins)
		cov := nw.NetCover(n)
		if width > SimplifyMaxVars {
			if nf, ncov, ok := simplifyWideCore(fanins, cov); ok {
				nw.SetFunction(n, nf, ncov)
				changed++
			}
			continue
		}
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

// simplifyWideCore minimizes a net too wide for the truth-table route
// with the cover-based espresso-style pass and drops fanins the minimized
// cover no longer mentions.
func simplifyWideCore(fanins []netcore.Net, cov logic.Cover) ([]netcore.Net, logic.Cover, bool) {
	cover := cov.Minimize()
	if cover.LiteralCount() >= cov.LiteralCount() && len(cover.Cubes) >= len(cov.Cubes) {
		return nil, logic.Cover{}, false
	}
	nf, cover := dropUnusedFanins(fanins, cover)
	return nf, cover, true
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
			for _, m := range cons {
				if dirty[m] {
					collapsible = false
					break
				}
				if combinedSupportSizeCore(nw, m, n) > EliminateMaxSupport {
					collapsible = false
					break
				}
				phases, nCubes, width := nw.NetCubes(m)
				for i, f := range nw.NetFanins(m) {
					if f != n {
						continue
					}
					for c := 0; c < nCubes; c++ {
						if phases[c*width+i] != logic.DC {
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
			ok := true
			for _, m := range cons {
				if !CollapseFaninCore(nw, m, n) {
					ok = false
					break
				}
			}
			if !ok {
				// Partially collapsed consumers stay functionally correct
				// (CollapseFaninCore is exact); mark the region dirty.
				dirty[n] = true
				for _, m := range cons {
					dirty[m] = true
				}
				continue
			}
			dirty[n] = true
			for _, m := range cons {
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

func combinedSupportSizeCore(nw *netcore.Network, m, n netcore.Net) int {
	set := make(map[netcore.Net]bool)
	for _, f := range nw.NetFanins(m) {
		if f != n {
			set[f] = true
		}
	}
	for _, f := range nw.NetFanins(n) {
		set[f] = true
	}
	return len(set)
}

// CollapseFaninCore rewrites net m with fanin n substituted by n's
// function, combining the two exactly over a window truth table; m's new
// support is its remaining fanins plus n's fanins. Reports success
// (failure means the combined support exceeds EliminateMaxSupport).
func CollapseFaninCore(nw *netcore.Network, m, n netcore.Net) bool {
	var support []netcore.Net
	seen := make(map[netcore.Net]bool)
	for _, f := range nw.NetFanins(m) {
		if f == n {
			continue
		}
		if !seen[f] {
			seen[f] = true
			support = append(support, f)
		}
	}
	for _, f := range nw.NetFanins(n) {
		if !seen[f] {
			seen[f] = true
			support = append(support, f)
		}
	}
	if len(support) > EliminateMaxSupport {
		return false
	}
	tt, err := nw.NetLocalTT(m, support)
	if err != nil {
		return false
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
		return true
	}
	nw.SetFunction(m, fanins, reduced.MinimalSOP())
	return true
}
