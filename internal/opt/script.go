// Package opt implements multi-level Boolean network optimization passes
// modelled on the SIS commands the paper's flow relies on: sweep, node
// simplification, eliminate, algebraic extraction and bounded-fanin
// technology decomposition, composed into script pipelines that play the
// role of script.algebraic and script.boolean.
package opt

import (
	"tels/internal/netcore"
	"tels/internal/network"
)

// The script pipelines run every pass on the arena-backed netcore
// representation: the caller's network is cloned (which also normalizes
// creation order), converted once on the way in and once on the way out.

// Algebraic runs the equivalent of SIS's script.algebraic on a copy of the
// network: structural cleanup, exact node simplification, a round of
// low-value elimination to expose larger divisors, greedy algebraic
// extraction, and a final cleanup. The result is the algebraically-
// factored multi-level network that threshold synthesis consumes.
func Algebraic(nw *network.Network) *network.Network {
	cw := netcore.FromNetwork(nw.Clone())
	SweepCore(cw)
	SimplifyNodesCore(cw)
	EliminateCore(cw, 0)
	SimplifyNodesCore(cw)
	ExtractCore(cw)
	ResubCore(cw)
	SweepCore(cw)
	SimplifyNodesCore(cw)
	SweepCore(cw)
	return cw.ToNetwork()
}

// Boolean runs the equivalent of SIS's script.boolean: like Algebraic but
// with a more aggressive eliminate/simplify schedule, approximating the
// Boolean (don't-care based) simplification of the original script with
// repeated exact local minimization. Like the SIS script, it finishes
// with an eliminate pass that re-forms medium-sized nodes — two-level
// minimization works better on them, and it is this final shape that
// makes the one-to-one baseline sensitive to the fanin restriction
// (Fig. 10). The paper derives its one-to-one baseline from this script.
func Boolean(nw *network.Network) *network.Network {
	cw := netcore.FromNetwork(nw.Clone())
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
	return cw.ToNetwork()
}
