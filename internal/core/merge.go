package core

import (
	"fmt"
	"strings"
)

// MergeDuplicates structurally hashes the network's gates and merges
// those with identical inputs, weights and threshold, rewiring fanouts to
// the surviving gate. Distinct synthesis cones can emit identical split
// gates; merging them never changes behaviour. Output names are
// preserved: when a merged gate drives a primary output, the output-named
// gate survives. Returns the number of gates removed.
func (tn *Network) MergeDuplicates() int {
	outputs := make(map[string]bool, len(tn.Outputs))
	for _, o := range tn.Outputs {
		outputs[o] = true
	}
	removed := 0
	for {
		order, err := tn.TopoGates()
		if err != nil {
			return removed
		}
		replace := make(map[string]string)
		seen := make(map[string]*Gate)
		for _, g := range order {
			key := gateKey(g)
			prev, ok := seen[key]
			if !ok {
				seen[key] = g
				continue
			}
			// Prefer keeping a gate whose name is a primary output; if
			// both are outputs they must both survive.
			victim, keeper := g, prev
			if outputs[g.Name] && !outputs[prev.Name] {
				victim, keeper = prev, g
				seen[key] = g
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
				delete(tn.byName, g.Name)
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
	}
}

// gateKey is a structural hash of a gate's function (inputs are order-
// sensitive, which is fine: synthesis emits deterministic orders).
func gateKey(g *Gate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "T%d", g.T)
	for i, in := range g.Inputs {
		fmt.Fprintf(&b, "|%d*%s", g.Weights[i], in)
	}
	return b.String()
}
