package core

import (
	"slices"
	"sync/atomic"

	"tels/internal/ilp"
	"tels/internal/truth"
)

// CheckCounters is a snapshot of the process-wide threshold-check
// observability counters. They are deliberately not part of SynthStats:
// stats travel inside service results, and these counters are shared by
// every run in the process. They stay package-level only because
// perfbench/adapter.go reads them; moving them to the caller waits for
// the next benchmark change.
type CheckCounters struct {
	// Checks counts threshold-check invocations that reached the ILP
	// or a checker's memo of proven verdicts (constants/binate early-outs
	// excluded).
	Checks int64
	// Deprecated: always zero; kept for perfbench/adapter.go until the
	// next benchmark change.
	Races int64
	// Deprecated: always zero; kept for perfbench/adapter.go until the
	// next benchmark change.
	PbsatWins int64
	// UnsatCacheHits counts checks answered by a proven UNSAT in the
	// checker's memo without touching the ILP. Feasible memo hits are
	// not counted.
	UnsatCacheHits int64
	// BudgetBailouts counts checks declared non-threshold because the
	// ILP ran out of budget (§V-E bailout; the caller splits).
	BudgetBailouts int64
}

var checkCounters struct {
	checks, unsatHits, bailouts atomic.Int64
}

// SnapshotCheckCounters returns the current process-wide counters.
func SnapshotCheckCounters() CheckCounters {
	return CheckCounters{
		Checks:         checkCounters.checks.Load(),
		UnsatCacheHits: checkCounters.unsatHits.Load(),
		BudgetBailouts: checkCounters.bailouts.Load(),
	}
}

// ResetUnsatCache does nothing: every Checker owns its memo of proven
// verdicts, so a run starts cold by building a new one.
//
// Deprecated: kept for perfbench/adapter.go until the next benchmark
// change.
func ResetUnsatCache() {}

// Checker runs Fig. 6 threshold checks: one branch-and-bound ILP per
// check, behind the checker's own memo of proven verdicts. The zero value
// is ready to use: default ILP node budget, nothing stored. Synthesize,
// OneToOne and each resyn fragment build one, so runs share nothing. A
// Checker is not safe for concurrent use.
type Checker struct {
	// ILP configures the branch-and-bound solver (§V-E node budget).
	ILP ilp.Solver
	// verdicts maps the digest of a check instance (the positive-unate
	// table plus margins and cap, computed before the ON/OFF covers are
	// derived) to its proven verdict: the positive-form ILP optimum, or
	// nil for proven UNSAT. A hit skips both the ILP and the exact prime
	// generation that dominates wide checks; the binate and unate splits
	// re-check the same functions, and array-style benchmarks repeat the
	// same slice function across outputs. Each caller's phase flips are
	// applied to the stored solution, so a hit returns what a cold check
	// would. Only proven verdicts enter — a §V-E budget bailout is not a
	// certificate either way (see ilp.Result.LimitHit) — so a hit never
	// changes a verdict, only the time to reach it. Allocated on the
	// first insert.
	verdicts map[[32]byte][]int
}

// Check decides whether the function tt — which must be unate and depend
// on all of its variables — is a threshold function under the defect
// tolerances, and if so returns an integer weight–threshold vector
// minimizing Σ|wᵢ| + T′ where T′ is the threshold of the positive-unate
// form. This is the ILP formulation of the paper's Fig. 6:
//
// The function is first put in positive-unate form by substituting
// negative-phase variables (§IV). With all weights nonnegative, an
// assignment of ⟨w;T⟩ satisfies all 2^l minterm constraints iff it
// satisfies one constraint per cube of a cover of f (the cube's minimal
// minterm) and one per cube of a cover of f̄ (the cube's maximal minterm):
//
//	ON:  Σ_{i ∈ lits(C)} wᵢ ≥ T + δon      for every cube C of f
//	OFF: Σ_{i ∈ dc(C)}  wᵢ ≤ T − δoff      for every cube C of f̄
//
// Soundness: any minterm of an ON cube has a superset of its literals at 1,
// and weights are nonnegative, so its sum dominates the cube constraint;
// symmetrically for OFF cubes. Completeness: the cube constraints are
// themselves minterm constraints. Hence this system is exact for any
// covers of f and f̄, prime or not (redundant cubes only add redundant
// rows). The strict "<" of Eq. 1 becomes "≤ T − δoff" over the integers,
// matching the paper's worked example ⟨2,1,1;3⟩ which satisfies
// w₂+w₃ = 2 = T − δoff with equality.
//
// maxWeight > 0 bounds the magnitude of every input weight: RTD peak
// currents scale with the weight, so physical designs cap the ratio
// between the largest and unit weight. Functions needing larger weights
// are declared non-threshold, which makes the synthesizer split them.
//
// The node budget mirrors §V-E: when branch and bound exhausts it, the
// function is declared non-threshold and the caller splits. An Optimal
// result that hit the budget is an unproven incumbent and is treated the
// same way, not as a threshold realization.
func (c *Checker) Check(tt *truth.Table, deltaOn, deltaOff, maxWeight int) (WeightVector, bool) {
	sys, ok := buildCheckSystem(tt, deltaOn, deltaOff, maxWeight)
	if !ok {
		return WeightVector{}, false
	}
	checkCounters.checks.Add(1)
	key := sys.digest()
	if x, hit := c.verdicts[key]; hit {
		if x == nil {
			checkCounters.unsatHits.Add(1)
			return WeightVector{}, false
		}
		return sys.vector(x), true
	}
	res := c.ILP.Solve(sys.problem())
	switch {
	case res.Status == ilp.Optimal && !res.LimitHit:
		c.store(key, slices.Clone(res.X))
		return sys.vector(res.X), true
	case res.Status == ilp.Infeasible:
		c.store(key, nil)
		return WeightVector{}, false
	default:
		checkCounters.bailouts.Add(1)
		return WeightVector{}, false
	}
}

// store records a proven verdict: the positive-form optimum, or nil for
// proven UNSAT.
func (c *Checker) store(key [32]byte, x []int) {
	if c.verdicts == nil {
		c.verdicts = make(map[[32]byte][]int)
	}
	c.verdicts[key] = x
}
