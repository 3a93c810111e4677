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
	"math"

	"tels/internal/simplex"
)

// Status reports the outcome of an ILP solve.
type Status int

// Solve outcomes.
const (
	Optimal    Status = iota // integer optimum found (see Result.LimitHit)
	Infeasible               // no integer solution exists — the tree was exhausted
	Limit                    // budget exhausted before any solution
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
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
	// LimitHit reports that the node budget ran out before the tree was
	// exhausted. An Optimal result with LimitHit set is an incumbent, not
	// a proven optimum; an Infeasible status is never reported with
	// LimitHit (unproven infeasibility is Limit instead).
	LimitHit bool
}

// Solver carries the branch-and-bound configuration.
type Solver struct {
	// MaxNodes bounds the number of branch-and-bound nodes explored.
	// Zero means DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes is the node budget used when Solver.MaxNodes is zero.
// Threshold-check ILPs are tiny; hitting this limit indicates a
// pathological instance, which the synthesizer handles by splitting.
const DefaultMaxNodes = 4000

const intTol = 1e-6

// Solve minimizes p.C·x subject to p.A x ≤ p.B, x ≥ 0, x integer. The
// costs p.C must be nonnegative (see simplex.Solve); an invalid problem
// reports Limit.
func (s *Solver) Solve(p *simplex.Problem) Result {
	maxNodes := s.MaxNodes
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	}
	b := &bnb{
		best:     math.Inf(1),
		maxNodes: maxNodes,
	}
	b.explore(p)
	switch {
	case b.hitLimit && b.bestX == nil:
		return Result{Status: Limit, Nodes: b.nodes, LimitHit: true}
	case b.bestX == nil:
		return Result{Status: Infeasible, Nodes: b.nodes}
	default:
		return Result{Status: Optimal, X: b.bestX, Objective: b.best, Nodes: b.nodes, LimitHit: b.hitLimit}
	}
}

type bnb struct {
	best     float64
	bestX    []int
	nodes    int
	maxNodes int
	hitLimit bool
}

func (b *bnb) explore(p *simplex.Problem) {
	if b.nodes >= b.maxNodes {
		b.hitLimit = true
		return
	}
	b.nodes++
	res := simplex.Solve(p)
	switch res.Status {
	case simplex.Infeasible:
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
