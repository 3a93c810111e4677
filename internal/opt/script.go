// Package opt implements multi-level Boolean network optimization passes
// modelled on the SIS commands the paper's flow relies on: sweep, node
// simplification, eliminate, algebraic extraction and bounded-fanin
// technology decomposition, composed into script pipelines that play the
// role of script.algebraic and script.boolean.
package opt

import (
	"fmt"
	"strings"

	"tels/internal/netcore"
	"tels/internal/network"
)

// scripts is the one table of optimization scripts, by name; Run and
// CheckScript read it.
var scripts = []struct {
	name string
	run  func(*netcore.Network)
}{
	{"algebraic", algebraic},
	{"boolean", boolean},
	{"none", func(*netcore.Network) {}},
}

// Run runs the named script on a copy of nw (netcore's Clone, which also
// normalizes creation order) and returns the copy.
func Run(script string, nw *netcore.Network) (*netcore.Network, error) {
	for _, s := range scripts {
		if s.name == script {
			out := nw.Clone()
			s.run(out)
			return out, nil
		}
	}
	return nil, CheckScript(script)
}

// CheckScript reports an error unless Run knows the script name.
func CheckScript(script string) error {
	names := make([]string, len(scripts))
	for i, s := range scripts {
		if s.name == script {
			return nil
		}
		names[i] = s.name
	}
	return fmt.Errorf("unknown script %q (want %s)", script, strings.Join(names, ", "))
}

// algebraic is SIS's script.algebraic: structural cleanup, exact node
// simplification, a round of low-value elimination to expose larger
// divisors, greedy algebraic extraction, and a final cleanup. The result
// is the algebraically-factored multi-level network that threshold
// synthesis consumes.
func algebraic(cw *netcore.Network) {
	SweepCore(cw)
	SimplifyNodesCore(cw)
	EliminateCore(cw, 0)
	SimplifyNodesCore(cw)
	ExtractCore(cw)
	ResubCore(cw)
	SweepCore(cw)
	SimplifyNodesCore(cw)
	SweepCore(cw)
}

// boolean is SIS's script.boolean: like algebraic but with a more
// aggressive eliminate/simplify schedule, approximating the Boolean
// (don't-care based) simplification of the original script with repeated
// exact local minimization. Like the SIS script, it finishes with an
// eliminate pass that re-forms medium-sized nodes — two-level
// minimization works better on them, and it is this final shape that
// makes the one-to-one baseline sensitive to the fanin restriction
// (Fig. 10). The paper derives its one-to-one baseline from this script.
func boolean(cw *netcore.Network) {
	SweepCore(cw)
	SimplifyNodesCore(cw)
	EliminateCore(cw, 2)
	SimplifyNodesCore(cw)
	ExtractCore(cw)
	SimplifyNodesCore(cw)
	EliminateCore(cw, 0)
	SimplifyNodesCore(cw)
	ExtractCore(cw)
	ResubCore(cw)
	// The don’t-care ingredient of script.boolean (full_simplify): after
	// extraction the cones share logic, so satisfiability and observability
	// don’t-cares appear.
	SimplifyFullCore(cw)
	SweepCore(cw)
	EliminateCore(cw, 25)
	SimplifyNodesCore(cw)
	SweepCore(cw)
}

// Algebraic, Boolean, Extract and SimplifyFull are pointer-network
// bridges over the arena scripts and passes, kept for
// perfbench/adapter.go until the next benchmark change.

// Algebraic runs script.algebraic on a pointer network.
func Algebraic(nw *network.Network) *network.Network { return runPointer("algebraic", nw) }

// Boolean runs script.boolean on a pointer network.
func Boolean(nw *network.Network) *network.Network { return runPointer("boolean", nw) }

// runPointer runs a known script on a pointer network.
func runPointer(script string, nw *network.Network) *network.Network {
	out, _ := Run(script, netcore.FromNetwork(nw)) // fails only on an unknown name
	return out.ToNetwork()
}

// Extract runs ExtractCore on a pointer network in place.
func Extract(nw *network.Network) int { return inPlace(nw, ExtractCore) }

// SimplifyFull runs SimplifyFullCore on a pointer network in place.
func SimplifyFull(nw *network.Network) int { return inPlace(nw, SimplifyFullCore) }

// inPlace runs an arena pass on a copy of nw and writes the result back.
func inPlace(nw *network.Network, pass func(*netcore.Network) int) int {
	cw := netcore.FromNetwork(nw)
	defer func() { *nw = *cw.ToNetwork() }()
	return pass(cw)
}
