// Package ilp implements an exact integer linear program solver by branch
// and bound over the LP relaxation solved with package simplex. It plays
// the role lp_solve played in the original TELS tool: deciding whether a
// unate function admits an integer weight–threshold assignment, and if so
// returning the one minimizing total weight plus threshold.
//
// Mirroring the behaviour the paper describes in §V-E, the solver takes a
// node budget; when the budget is exhausted it reports Limit. Budget
// exhaustion is distinct from proven infeasibility: Infeasible means the
// whole branch-and-bound tree was explored and no integer solution
// exists, while Limit (or Result.LimitHit on an Optimal result) means
// parts of the tree were never visited. Callers that cache "not a
// threshold function" verdicts must only do so on Infeasible.
package ilp

import (
	"context"
	"math"

	"tels/internal/simplex"
)

// Status reports the outcome of an ILP solve.
type Status int

// Solve outcomes.
const (
	Optimal    Status = iota // integer optimum found (see Result.LimitHit)
	Infeasible               // no integer solution exists — the tree was exhausted
	Unbounded                // relaxation unbounded below
	Limit                    // budget exhausted (or context cancelled) before any solution
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "node-limit"
	}
	return "unknown"
}

// Result holds the outcome of an ILP solve.
type Result struct {
	Status    Status
	X         []int // integer solution (valid when Status == Optimal)
	Objective float64
	Nodes     int // branch-and-bound nodes explored
	// LimitHit reports that the node budget ran out (or the context was
	// cancelled) before the tree was exhausted. An Optimal result with
	// LimitHit set is an incumbent, not a proven optimum; an Infeasible
	// status is never reported with LimitHit (unproven infeasibility is
	// Limit instead).
	LimitHit bool
}

// Proven reports whether the result is a complete verdict: a true optimum
// or a genuine infeasibility, as opposed to a §V-E budget bailout.
func (r Result) Proven() bool {
	return (r.Status == Optimal || r.Status == Infeasible) && !r.LimitHit
}

// Solver carries the branch-and-bound configuration.
type Solver struct {
	// MaxNodes bounds the number of branch-and-bound nodes explored.
	// Zero means DefaultMaxNodes.
	MaxNodes int
	// Exact solves every LP relaxation in exact rational arithmetic
	// instead of float64 — slower, but immune to rounding pathologies.
	Exact bool
}

// DefaultMaxNodes is the node budget used when Solver.MaxNodes is zero.
// Threshold-check ILPs are tiny; hitting this limit indicates a
// pathological instance, which the synthesizer handles by splitting.
const DefaultMaxNodes = 4000

const intTol = 1e-6

// Solve minimizes p.C·x subject to p.A x ≤ p.B, x ≥ 0, x integer.
func (s *Solver) Solve(p *simplex.Problem) Result {
	return s.SolveContext(context.Background(), p)
}

// SolveContext is Solve with cooperative cancellation: when ctx is
// cancelled mid-search the solver stops at the next node and reports the
// partial outcome with LimitHit set.
func (s *Solver) SolveContext(ctx context.Context, p *simplex.Problem) Result {
	maxNodes := s.MaxNodes
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	}
	b := &bnb{
		best:     math.Inf(1),
		maxNodes: maxNodes,
		exact:    s.Exact,
		done:     ctx.Done(),
	}
	b.explore(p)
	switch {
	case b.hitLimit && b.bestX == nil:
		return Result{Status: Limit, Nodes: b.nodes, LimitHit: true}
	case b.unbounded:
		return Result{Status: Unbounded, Nodes: b.nodes}
	case b.bestX == nil:
		return Result{Status: Infeasible, Nodes: b.nodes}
	default:
		return Result{Status: Optimal, X: b.bestX, Objective: b.best, Nodes: b.nodes, LimitHit: b.hitLimit}
	}
}

type bnb struct {
	best      float64
	bestX     []int
	nodes     int
	maxNodes  int
	hitLimit  bool
	unbounded bool
	exact     bool
	done      <-chan struct{}
}

func (b *bnb) explore(p *simplex.Problem) {
	if b.nodes >= b.maxNodes {
		b.hitLimit = true
		return
	}
	// Cancellation check every few nodes: a select per node is cheap
	// relative to one simplex solve, and a cancelled solve must release
	// its CPU quickly.
	if b.nodes&7 == 0 && b.done != nil {
		select {
		case <-b.done:
			b.hitLimit = true
			return
		default:
		}
	}
	b.nodes++
	var res simplex.Result
	if b.exact {
		res = simplex.SolveExact(p)
	} else {
		res = simplex.Solve(p)
	}
	switch res.Status {
	case simplex.Infeasible:
		return
	case simplex.Unbounded:
		// The relaxation is unbounded. For the problems this package
		// serves the objective is a nonnegative combination of the
		// variables, so this does not arise; record and stop.
		b.unbounded = true
		return
	case simplex.IterLimit:
		b.hitLimit = true
		return
	}
	// Bound: an LP optimum no better than the incumbent cannot improve.
	if res.Objective >= b.best-intTol {
		return
	}
	// Find the most fractional variable.
	frac := -1
	fracDist := 0.0
	for i, x := range res.X {
		f := x - math.Floor(x)
		d := math.Min(f, 1-f)
		if d > intTol && d > fracDist {
			frac, fracDist = i, d
		}
	}
	if frac < 0 {
		// Integral solution.
		x := make([]int, len(res.X))
		for i, v := range res.X {
			x[i] = int(math.Round(v))
		}
		b.best = res.Objective
		b.bestX = x
		return
	}
	// Branch on x_frac ≤ floor and x_frac ≥ ceil.
	lo := math.Floor(res.X[frac])
	n := len(p.C)

	down := p.Clone()
	row := make([]float64, n)
	row[frac] = 1
	down.AddConstraint(row, lo)
	b.explore(down)

	up := p.Clone()
	row2 := make([]float64, n)
	row2[frac] = -1
	up.AddConstraint(row2, -(lo + 1))
	b.explore(up)
}
