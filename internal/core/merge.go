package core

import "strconv"

// mergeDuplicates structurally hashes the network's gates and merges
// those with identical inputs, weights and threshold, rewiring fanouts to
// the surviving gate. Distinct synthesis cones can emit identical split
// gates; merging them never changes behaviour. Output names are
// preserved: when a merged gate drives a primary output, the output-named
// gate survives. Returns the number of gates removed.
func (tn *Network) mergeDuplicates() int {
	outputs := make(map[string]bool, len(tn.Outputs))
	for _, o := range tn.Outputs {
		outputs[o] = true
	}
	removed := 0
	for {
		replace := make(map[string]string)
		seen := make(map[string]*Gate)
		var key []byte
		for _, g := range tn.Gates {
			key = appendGateKey(key[:0], g)
			prev, ok := seen[string(key)]
			if !ok {
				seen[string(key)] = g
				continue
			}
			// Prefer keeping a gate whose name is a primary output; if
			// both are outputs they must both survive.
			victim, keeper := g, prev
			if outputs[g.Name] && !outputs[prev.Name] {
				victim, keeper = prev, g
				seen[string(key)] = g
			}
			if outputs[victim.Name] {
				continue
			}
			replace[victim.Name] = keeper.Name
		}
		if len(replace) == 0 {
			return removed
		}
		kept := tn.Gates[:0]
		for _, g := range tn.Gates {
			if _, dead := replace[g.Name]; dead {
				delete(tn.signals, g.Name)
				removed++
				continue
			}
			for i, in := range g.Inputs {
				// A keeper can lose to a later output gate in the same
				// round (a→b, then b→output), so follow the chain.
				for to, ok := replace[in]; ok; to, ok = replace[to] {
					g.Inputs[i] = to
				}
			}
			kept = append(kept, g)
		}
		tn.Gates = kept
		// An output-named keeper can sit after the gates it now feeds.
		// Merging gates with equal inputs cannot close a cycle, so the
		// re-sort cannot fail.
		_ = tn.sortGates()
	}
}

// appendGateKey appends a structural key of a gate's function to b:
// "T<t>" and then "|<w>*<input>" per input. Inputs are order-sensitive,
// which is fine: synthesis emits deterministic orders.
func appendGateKey(b []byte, g *Gate) []byte {
	b = strconv.AppendInt(append(b, 'T'), int64(g.T), 10)
	for i, in := range g.Inputs {
		b = strconv.AppendInt(append(b, '|'), int64(g.Weights[i]), 10)
		b = append(append(b, '*'), in...)
	}
	return b
}
