package opt

import (
	"tels/internal/logic"
	"tels/internal/netcore"
)

// The structural passes run on the arena-backed netcore representation:
// covers are read from the phase slab without chasing pointers, fanout
// counts are maintained incrementally instead of recounted per round, and
// window truth tables come from the word-parallel NetLocalTT.

// netConstCore reports whether an internal net's cover is syntactically
// constant (no cubes, or any universal cube).
func netConstCore(nw *netcore.Network, n netcore.Net) (isConst, value bool) {
	if nw.NetKind(n) != netcore.NetFunc {
		return false, false
	}
	phases, nCubes, width := nw.NetCubes(n)
	if nCubes == 0 {
		return true, false
	}
	for c := 0; c < nCubes; c++ {
		universal := true
		for i := 0; i < width; i++ {
			if phases[c*width+i] != logic.DC {
				universal = false
				break
			}
		}
		if universal {
			return true, true
		}
	}
	return false, false
}

// netWireCore reports whether the net is a single-literal function of its
// single fanin: a buffer (phase Pos) or inverter (phase Neg).
func netWireCore(nw *netcore.Network, n netcore.Net) (wire bool, phase logic.Phase) {
	if nw.NetKind(n) != netcore.NetFunc {
		return false, logic.DC
	}
	phases, nCubes, width := nw.NetCubes(n)
	if width != 1 || nCubes != 1 {
		return false, logic.DC
	}
	p := phases[0]
	if p == logic.DC {
		return false, logic.DC // constant 1, handled by netConstCore
	}
	return true, p
}

// mergeDuplicateFaninsCore folds repeated fanin entries into a single
// column, dropping cubes that require contradictory phases.
func mergeDuplicateFaninsCore(fanins *[]netcore.Net, cov *logic.Cover) bool {
	seen := make(map[netcore.Net]int)
	dup := false
	for _, f := range *fanins {
		if _, ok := seen[f]; ok {
			dup = true
			break
		}
		seen[f] = 1
	}
	if !dup {
		return false
	}
	var merged []netcore.Net
	index := make(map[netcore.Net]int)
	for _, f := range *fanins {
		if _, ok := index[f]; !ok {
			index[f] = len(merged)
			merged = append(merged, f)
		}
	}
	out := logic.NewCover(len(merged))
nextCube:
	for _, c := range cov.Cubes {
		d := logic.NewCube(len(merged))
		for i, p := range c {
			if p == logic.DC {
				continue
			}
			j := index[(*fanins)[i]]
			if d[j] != logic.DC && d[j] != p {
				continue nextCube // x * !x
			}
			d[j] = p
		}
		out.AddCube(d)
	}
	*fanins = merged
	*cov = out
	return true
}

// SweepCore simplifies the network structurally: duplicate fanins are
// merged, constant and wire (buffer/inverter) fanins are absorbed into
// their fanouts, covers are SCC-normalized, and dangling logic is removed.
// It returns the number of nets removed over all rounds. Output nets are
// never deleted, so output names survive.
func SweepCore(nw *netcore.Network) int {
	total := 0
	for {
		changed := false
		order, err := nw.TopoNets()
		if err != nil {
			panic(err)
		}
		for _, n := range order {
			if nw.NetKind(n) != netcore.NetFunc {
				continue
			}
			fanins := append([]netcore.Net(nil), nw.NetFanins(n)...)
			cov := nw.NetCover(n)
			dirty := false
			if mergeDuplicateFaninsCore(&fanins, &cov) {
				changed, dirty = true, true
			}
			for i := 0; i < len(fanins); {
				f := fanins[i]
				if isC, v := netConstCore(nw, f); isC {
					ph := logic.Neg
					if v {
						ph = logic.Pos
					}
					cov = removePosition(cov.Cofactor(i, ph), i)
					fanins = append(fanins[:i], fanins[i+1:]...)
					changed, dirty = true, true
					continue
				}
				if wire, ph := netWireCore(nw, f); wire {
					// Rewire through the buffer/inverter, flipping the
					// column phase for an inverter.
					fanins[i] = nw.NetFanins(f)[0]
					if ph == logic.Neg {
						for _, c := range cov.Cubes {
							switch c[i] {
							case logic.Pos:
								c[i] = logic.Neg
							case logic.Neg:
								c[i] = logic.Pos
							}
						}
					}
					changed, dirty = true, true
					mergeDuplicateFaninsCore(&fanins, &cov)
					if i >= len(fanins) {
						break
					}
					continue
				}
				i++
			}
			scc := cov.SCC()
			if len(scc.Cubes) != len(cov.Cubes) {
				cov = scc
				changed, dirty = true, true
			}
			if dirty {
				nw.SetFunction(n, fanins, cov)
			}
		}
		total += nw.RemoveDangling()
		if !changed {
			return total
		}
	}
}

// removePosition deletes variable position i from every cube. The position
// must be DC in all cubes (as after a cofactor).
func removePosition(f logic.Cover, i int) logic.Cover {
	out := logic.NewCover(f.N - 1)
	for _, c := range f.Cubes {
		d := make(logic.Cube, 0, f.N-1)
		d = append(d, c[:i]...)
		d = append(d, c[i+1:]...)
		out.AddCube(d)
	}
	return out
}
