package netcore

import (
	"sort"

	"tels/internal/truth"
)

// Priority k-feasible cut enumeration over structural handles, in the
// style of the cut managers of ABC and mockturtle: each node keeps at most
// `limit` cuts ranked by a simple priority (fewer leaves first, then lower
// total leaf level), merged pairwise/cross-product from fanin cut sets,
// deduplicated by signature + leaf equality, always including the trivial
// cut {h}. Each cut carries the local truth table of the node over the
// cut leaves (sorted ascending by handle), which is what gives
// optimization passes bounded windows instead of global collapse.

// Cut is one k-feasible cut of a handle.
type Cut struct {
	Leaves []Handle // sorted ascending
	TT     *truth.Table
	sig    uint64 // bloom signature of Leaves for fast subset/equality tests
}

// sigOf hashes leaf handles into a 64-bit bloom signature.
func sigOf(leaves []Handle) uint64 {
	var s uint64
	for _, l := range leaves {
		s |= 1 << (uint(l) % 64)
	}
	return s
}

func leavesEqual(a, b []Handle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergeLeaves unions two sorted leaf sets, returning nil if the union
// exceeds k.
func mergeLeaves(a, b []Handle, k int) []Handle {
	out := make([]Handle, 0, k)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
		if len(out) > k {
			return nil
		}
	}
	for ; i < len(a); i++ {
		out = append(out, a[i])
		if len(out) > k {
			return nil
		}
	}
	for ; j < len(b); j++ {
		out = append(out, b[j])
		if len(out) > k {
			return nil
		}
	}
	return out
}

// CutConfig bounds cut enumeration.
type CutConfig struct {
	K     int  // max leaves per cut (capped at 12)
	Limit int  // max cuts kept per node (trivial cut not counted)
	TT    bool // compute the local truth table of every cut
}

// DefaultCutConfig returns the k=8, limit=8 configuration used by the
// benchmarks.
func DefaultCutConfig() CutConfig { return CutConfig{K: 8, Limit: 8, TT: true} }

// EnumerateCuts computes priority k-feasible cuts for every handle in the
// arena, indexed by handle. Dead slots get nil. Net-layer mutations are
// rehashed first so handles reflect the current structure.
func (nw *Network) EnumerateCuts(cfg CutConfig) [][]Cut {
	if nw.stale {
		nw.Rehash()
	}
	k := cfg.K
	if k > 12 {
		k = 12
	}
	if k < 2 {
		k = 2
	}
	limit := cfg.Limit
	if limit < 1 {
		limit = 1
	}
	cuts := make([][]Cut, len(nw.nodes))
	for h := range nw.nodes {
		nd := &nw.nodes[h]
		switch nd.kind {
		case kindDead:
			continue
		case kindConst:
			c := Cut{Leaves: []Handle{}}
			if cfg.TT {
				c.TT = truth.Const(0, Handle(h) == Const1)
			}
			cuts[h] = []Cut{c}
			continue
		case kindInput:
			c := Cut{Leaves: []Handle{Handle(h)}, sig: sigOf([]Handle{Handle(h)})}
			if cfg.TT {
				c.TT = truth.Var(1, 0)
			}
			cuts[h] = []Cut{c}
			continue
		}
		// kindFunc: arena order is topological for handles (fanins are
		// interned before fanouts), so fanin cut sets are ready.
		fans := nw.HandleFanins(Handle(h))
		// Cross product of fanin cut sets, bounded by walking fanins
		// left to right and keeping at most limit partial merges.
		partial := []Cut{{Leaves: []Handle{}}}
		for _, f := range fans {
			var next []Cut
			for _, p := range partial {
				for _, fc := range cuts[f] {
					merged := mergeLeaves(p.Leaves, fc.Leaves, k)
					if merged == nil {
						continue
					}
					next = append(next, Cut{Leaves: merged, sig: sigOf(merged)})
				}
			}
			next = nw.pruneCuts(next, limit)
			if len(next) == 0 {
				// No feasible merge at this fanin: only the trivial cut
				// survives for this node.
				partial = nil
				break
			}
			partial = next
		}
		var out []Cut
		if partial != nil {
			out = partial
		}
		// The trivial cut is always available.
		trivial := Cut{Leaves: []Handle{Handle(h)}, sig: sigOf([]Handle{Handle(h)})}
		out = append(out, trivial)
		if cfg.TT {
			for i := range out {
				tt, err := nw.HandleLocalTT(Handle(h), out[i].Leaves)
				if err != nil {
					// A cut whose cone escapes its own leaves is a bug;
					// enumeration guarantees leaves cut every path.
					panic(err)
				}
				out[i].TT = tt
			}
		}
		cuts[h] = out
	}
	return cuts
}

// pruneCuts deduplicates and keeps the best `limit` cuts by (size, total
// leaf level), preserving discovery order among ties for determinism.
func (nw *Network) pruneCuts(cs []Cut, limit int) []Cut {
	if len(cs) == 0 {
		return cs
	}
	uniq := cs[:0]
outer:
	for _, c := range cs {
		for _, u := range uniq {
			if u.sig == c.sig && leavesEqual(u.Leaves, c.Leaves) {
				continue outer
			}
		}
		uniq = append(uniq, c)
	}
	cost := func(c Cut) int {
		lv := 0
		for _, l := range c.Leaves {
			lv += int(nw.nodes[l].level)
		}
		return len(c.Leaves)*1024 + lv
	}
	sort.SliceStable(uniq, func(i, j int) bool { return cost(uniq[i]) < cost(uniq[j]) })
	if len(uniq) > limit {
		uniq = uniq[:limit]
	}
	return uniq
}

// NetCuts returns the cut set of the net's structural handle under cfg.
// Cuts are shared across structurally identical nets by construction.
func (nw *Network) NetCuts(n Net, cfg CutConfig) []Cut {
	all := nw.EnumerateCuts(cfg)
	return all[nw.NetHandle(n)]
}
