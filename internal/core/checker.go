package core

import (
	"sync"
	"sync/atomic"

	"tels/internal/ilp"
	"tels/internal/truth"
)

// CheckCounters is a snapshot of the process-wide threshold-check
// observability counters. They are deliberately not part of SynthStats:
// stats travel inside service results, and these counters are shared by
// every run in the process.
type CheckCounters struct {
	// Checks counts threshold-check invocations that reached the ILP
	// or the UNSAT cache (constants/binate early-outs excluded).
	Checks int64
	// Deprecated: always zero; kept for perfbench/adapter.go until the
	// next benchmark change.
	Races int64
	// Deprecated: always zero; kept for perfbench/adapter.go until the
	// next benchmark change.
	PbsatWins int64
	// UnsatCacheHits counts checks answered by the proven-UNSAT cache
	// without touching the ILP.
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

// unsatCache remembers proven-UNSAT check instances by the canonical
// truth-table digest (the positive-unate form plus margins — computed
// before the ON/OFF covers are derived, so a hit skips not only the ILP
// but also the exact prime generation that dominates wide checks).
// Binate splits and resyn iterations re-check the same rejected
// functions over and over, and array-style benchmarks repeat the same
// wide slice function across outputs. Only proven verdicts enter — a
// §V-E budget bailout is not a certificate (see ilp.Result.Proven) — so
// a hit never changes a verdict, only the time to reach it.
const unsatCacheCap = 1 << 16

var unsatCache = struct {
	sync.RWMutex
	m map[[32]byte]struct{}
}{m: make(map[[32]byte]struct{})}

func unsatCacheLookup(key [32]byte) bool {
	unsatCache.RLock()
	_, ok := unsatCache.m[key]
	unsatCache.RUnlock()
	return ok
}

func unsatCacheInsert(key [32]byte) {
	unsatCache.Lock()
	if len(unsatCache.m) < unsatCacheCap {
		unsatCache.m[key] = struct{}{}
	}
	unsatCache.Unlock()
}

// ResetUnsatCache drops every cached UNSAT certificate (tests and
// benchmarks that must measure cold solves).
func ResetUnsatCache() {
	unsatCache.Lock()
	unsatCache.m = make(map[[32]byte]struct{})
	unsatCache.Unlock()
}

// Checker runs Fig. 6 threshold checks: one branch-and-bound ILP per
// check, behind the proven-UNSAT cache. The zero value is ready to use:
// default ILP node budget, UNSAT cache on.
type Checker struct {
	// ILP configures the branch-and-bound solver (§V-E node budget).
	ILP ilp.Solver
	// NoCache bypasses the process-wide proven-UNSAT cache. Benchmarks
	// use it to measure cold solves.
	NoCache bool
}

// Checker builds the threshold checker described by the synthesis
// knobs; internal/resyn and the synthesizer share it so the ILP knobs
// reach every check.
func (o *Options) Checker() Checker {
	return Checker{ILP: ilp.Solver{MaxNodes: o.MaxILPNodes}}
}

// Check decides whether tt is a threshold function under the margins and
// weight cap, exactly like CheckThresholdBounded. An Optimal ILP result
// that hit the node budget is an unproven incumbent and is treated as a
// §V-E bailout, not a threshold realization.
func (c *Checker) Check(tt *truth.Table, deltaOn, deltaOff, maxWeight int) (WeightVector, bool) {
	sys, ok := buildCheckSystem(tt, deltaOn, deltaOff, maxWeight)
	if !ok {
		return WeightVector{}, false
	}
	checkCounters.checks.Add(1)
	var key [32]byte
	if !c.NoCache {
		key = sys.digest()
		if unsatCacheLookup(key) {
			checkCounters.unsatHits.Add(1)
			return WeightVector{}, false
		}
	}
	res := c.ILP.Solve(sys.problem())
	switch {
	case res.Status == ilp.Optimal && !res.LimitHit:
		return sys.vector(res.X), true
	case res.Status == ilp.Infeasible:
		if !c.NoCache {
			unsatCacheInsert(key)
		}
		return WeightVector{}, false
	default:
		checkCounters.bailouts.Add(1)
		return WeightVector{}, false
	}
}
