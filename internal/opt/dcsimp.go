package opt

import (
	"tels/internal/logic"
	"tels/internal/netcore"
	"tels/internal/truth"
)

// Don't-care simplification bounds.
const (
	// odcMaxNetworkNodes bounds the network size for observability
	// don't-cares; a larger network gets satisfiability don't-cares only.
	odcMaxNetworkNodes = 600
	// dcMaxConeInputs bounds the primary-input support of a candidate
	// net's fanin cones, and the primary-input count for which
	// observability is enumerated.
	dcMaxConeInputs = 12
)

// SimplifyFullCore minimizes each net against its don't-cares: the
// satisfiability don't-cares (fanin patterns no input can produce) and,
// when the whole network has at most odcMaxNetworkNodes gates and at most
// dcMaxConeInputs inputs, the observability don't-cares (patterns where no
// primary output is sensitive to the net). This is the don't-care
// machinery of SIS's full_simplify, computed exactly with word-parallel
// cone truth tables. Nets are processed one at a time against the
// *current* network, so each rewrite preserves the network function and
// sequential application is sound (avoiding the classical
// ODC-compatibility pitfall). Candidates are the non-output nets of
// 1..SimplifyMaxVars fanins whose fanin cones, as they stand when the
// pass starts, reach at most dcMaxConeInputs inputs; a rewrite only drops
// fanins, so those supports stay sufficient. Returns the number of nets
// improved.
func SimplifyFullCore(nw *netcore.Network) int {
	order, err := nw.TopoNets()
	if err != nil {
		panic(err)
	}
	support := coneSupports(nw, order)
	observe := nw.GateCount() <= odcMaxNetworkNodes && len(nw.Inputs()) <= dcMaxConeInputs
	outputs := make(map[netcore.Net]bool, len(nw.Outputs()))
	for _, o := range nw.Outputs() {
		outputs[o] = true
	}
	changed := 0
	for _, n := range order {
		k := len(nw.NetFanins(n))
		if nw.NetKind(n) != netcore.NetFunc || outputs[n] || k < 1 || k > SimplifyMaxVars || support[n] == nil {
			continue
		}
		var dc *truth.Table
		if observe {
			dc = fullDCSet(nw, n)
		} else {
			dc = sdcSet(nw, n, support[n])
		}
		if reduceWithDC(nw, n, dc) {
			changed++
		}
	}
	if changed > 0 {
		nw.RemoveDangling()
	}
	return changed
}

// coneSupports returns each net's transitive-fanin primary inputs, or nil
// once they exceed dcMaxConeInputs (a wider fanin makes every fanout
// wider, so the cap loses nothing). order must be topological.
func coneSupports(nw *netcore.Network, order []netcore.Net) map[netcore.Net][]netcore.Net {
	support := make(map[netcore.Net][]netcore.Net, len(order))
	for _, n := range order {
		if nw.NetKind(n) == netcore.NetInput {
			support[n] = []netcore.Net{n}
			continue
		}
		s := []netcore.Net{}
		for _, f := range nw.NetFanins(n) {
			if s = unionNets(s, support[f]); s == nil {
				break
			}
		}
		support[n] = s
	}
	return support
}

// unionNets merges two ascending net lists, returning nil if either is nil
// or the union exceeds dcMaxConeInputs.
func unionNets(a, b []netcore.Net) []netcore.Net {
	if a == nil || b == nil {
		return nil
	}
	out := make([]netcore.Net, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	if len(out) > dcMaxConeInputs {
		return nil
	}
	return out
}

// sdcSet returns the satisfiability don't-cares of net n over its fanins:
// the fanin patterns no assignment of the inputs pis produces. pis must
// contain the inputs of n's fanin cones. It returns nil when the cones
// cannot be evaluated.
func sdcSet(nw *netcore.Network, n netcore.Net, pis []netcore.Net) *truth.Table {
	cones, err := nw.NetLocalTTs(nw.NetFanins(n), pis)
	if err != nil {
		return nil
	}
	dc := truth.Const(len(cones), true)
	for m := 0; m < 1<<uint(len(pis)); m++ {
		dc.Set(faninPattern(cones, m), false)
	}
	return dc
}

// fullDCSet returns the satisfiability plus observability don't-cares of
// net n over its fanins: the fanin patterns that no input assignment
// produces while some primary output is sensitive to n. Sensitivity is
// the XOR of each output's two cofactors on n, with every output
// expressed over all inputs plus n. It returns nil when the truth tables
// cannot be built.
func fullDCSet(nw *netcore.Network, n netcore.Net) *truth.Table {
	pis := nw.Inputs()
	cones, err := nw.NetLocalTTs(nw.NetFanins(n), pis)
	if err != nil {
		return nil
	}
	outs, err := nw.NetLocalTTs(nw.Outputs(), append(append([]netcore.Net(nil), pis...), n))
	if err != nil {
		return nil
	}
	// n is the top variable: minterm m has n=0 and m+half has n=1.
	half := 1 << uint(len(pis))
	dc := truth.Const(len(cones), true)
	for m := 0; m < half; m++ {
		for _, o := range outs {
			if o.Get(m) != o.Get(m+half) {
				dc.Set(faninPattern(cones, m), false)
				break
			}
		}
	}
	return dc
}

// faninPattern is the fanin value vector at input minterm m, fanin i in
// bit i.
func faninPattern(cones []*truth.Table, m int) int {
	p := 0
	for i, tt := range cones {
		if tt.Get(m) {
			p |= 1 << uint(i)
		}
	}
	return p
}

// reduceWithDC reminimizes net n's cover against the don't-care set over
// its fanins and installs the result if it is smaller, dropping fanins it
// no longer mentions. A nil or empty set changes nothing.
func reduceWithDC(nw *netcore.Network, n netcore.Net, dc *truth.Table) bool {
	if dc == nil {
		return false
	}
	if isConst, v := dc.IsConst(); isConst && !v {
		return false
	}
	cov := nw.NetCover(n)
	cover := truth.FromCover(cov).MinimalSOPWithDC(dc)
	if cover.LiteralCount() >= cov.LiteralCount() && len(cover.Cubes) >= len(cov.Cubes) {
		return false
	}
	switch {
	case cover.IsZero():
		nw.SetFunction(n, nil, logic.Zero(0))
	case cover.HasUniverse():
		nw.SetFunction(n, nil, logic.One(0))
	default:
		fanins, reduced := dropUnusedFanins(nw.NetFanins(n), cover)
		nw.SetFunction(n, fanins, reduced)
	}
	return true
}
