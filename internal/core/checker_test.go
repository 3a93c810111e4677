package core

import (
	"math/rand"
	"testing"

	"tels/internal/ilp"
	"tels/internal/truth"
)

// Random wider functions, margins and weight caps through the FuzzCheck
// referee. The name dates from when two engines raced on every check;
// the identity now held is between the check, its independent oracles
// and the cached checker.
func TestPortfolioIdentityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 120; iter++ {
		n := 3 + rng.Intn(4)
		tt := randomUnate(rng, n)
		if isConst, _ := tt.IsConst(); isConst || len(tt.Support()) != n {
			continue
		}
		don := rng.Intn(3)
		doff := 1 + rng.Intn(2)
		maxW := 0
		if rng.Intn(3) == 0 {
			maxW = don + doff + rng.Intn(4)
		}
		refereeCheck(t, tt, don, doff, maxW)
	}
}

// The proven-UNSAT cache must change timing only, never verdicts, and
// must register hits on repeated rejections.
func TestUnsatCacheTransparent(t *testing.T) {
	ResetUnsatCache()
	defer ResetUnsatCache()

	// x0·x1 + x2·x3 is unate with full support but not threshold.
	n := 4
	tt := truth.New(n)
	for m := 0; m < tt.Size(); m++ {
		a := m&1 != 0 && m&2 != 0
		b := m&4 != 0 && m&8 != 0
		tt.Set(m, a || b)
	}
	if IsThresholdLP(tt) {
		t.Fatal("test function unexpectedly threshold")
	}

	before := SnapshotCheckCounters().UnsatCacheHits
	c := Checker{}
	if _, ok := c.Check(tt, 0, 1, 0); ok {
		t.Fatal("first check: expected non-threshold")
	}
	if _, ok := c.Check(tt, 0, 1, 0); ok {
		t.Fatal("second check: expected non-threshold")
	}
	if hits := SnapshotCheckCounters().UnsatCacheHits - before; hits != 1 {
		t.Fatalf("unsat cache hits = %d, want 1", hits)
	}

	// Different margins form a different instance: no false sharing.
	if _, ok := c.Check(tt, 1, 1, 0); ok {
		t.Fatal("margin variant: expected non-threshold")
	}

	// x0·(x1 + x2) needs w0 = 2: rejected under a unit weight cap, and
	// that certificate must not leak into the uncapped instance.
	g := truth.New(3)
	for m := 0; m < g.Size(); m++ {
		g.Set(m, m&1 != 0 && m&6 != 0)
	}
	if _, ok := c.Check(g, 0, 1, 1); ok {
		t.Fatal("capped check: expected non-threshold")
	}
	if _, ok := c.Check(g, 0, 1, 0); !ok {
		t.Fatal("uncapped check after a capped rejection: expected threshold")
	}
}

// A tiny ILP budget must surface as a budget bailout (declared
// non-threshold, nothing cached), never as a cached UNSAT certificate.
func TestBudgetBailoutNotCached(t *testing.T) {
	ResetUnsatCache()
	defer ResetUnsatCache()

	rng := rand.New(rand.NewSource(5))
	tiny := Checker{ILP: ilp.Solver{MaxNodes: 1}}
	full := Checker{}
	for iter := 0; iter < 300; iter++ {
		tt := randomUnate(rng, 6)
		if isConst, _ := tt.IsConst(); isConst {
			continue
		}
		if len(tt.Support()) != 6 {
			continue
		}
		// A 1-node budget bails out unless the root LP happens to be
		// integral or infeasible; hunt for an instance where it bails.
		before := SnapshotCheckCounters().BudgetBailouts
		_, ok := tiny.Check(tt, 0, 1, 0)
		if SnapshotCheckCounters().BudgetBailouts == before {
			continue
		}
		if ok {
			t.Fatal("a budget bailout must report non-threshold")
		}
		// The bailout must not have poisoned the UNSAT cache: with the
		// full budget the verdict must match the LP separability oracle.
		_, got := full.Check(tt, 0, 1, 0)
		if want := IsThresholdLP(tt); got != want {
			t.Fatalf("after bailout: full-budget=%v oracle=%v", got, want)
		}
		return
	}
	t.Skip("no bailout instance found in 300 trials")
}

// Every unate full-support function of up to 3 variables through the
// FuzzCheck referee, uncapped and under every cap from 1 to 3, so the
// exhaustive capped search and the cache identity see the whole space
// rather than a random sample.
func TestPortfolioIdentityExhaustive(t *testing.T) {
	for n := 1; n <= 3; n++ {
		size := 1 << uint(n)
		for code := 0; code < 1<<uint(size); code++ {
			tt := truth.New(n)
			for m := 0; m < size; m++ {
				tt.Set(m, code&(1<<uint(m)) != 0)
			}
			if isConst, _ := tt.IsConst(); isConst {
				continue
			}
			if len(tt.Support()) != n || !tt.IsUnate() {
				continue
			}
			for maxW := 0; maxW <= 3; maxW++ {
				refereeCheck(t, tt, 0, 1, maxW)
			}
		}
	}
}

// The process-wide counters move as documented: every check that
// reaches the ILP or the cache counts once, a repeated rejection counts
// as a cache hit, and the deprecated race fields stay zero.
func TestPortfolioCounters(t *testing.T) {
	ResetUnsatCache()
	defer ResetUnsatCache()

	// x0·x1 + x2·x3 is unate with full support but not threshold.
	tt := truth.New(4)
	for m := 0; m < tt.Size(); m++ {
		tt.Set(m, (m&1 != 0 && m&2 != 0) || (m&4 != 0 && m&8 != 0))
	}
	before := SnapshotCheckCounters()
	var c Checker
	for i := 0; i < 3; i++ {
		if _, ok := c.Check(tt, 0, 1, 0); ok {
			t.Fatalf("check %d: expected non-threshold", i)
		}
	}
	if _, ok := c.Check(majority3(), 0, 1, 0); !ok {
		t.Fatal("majority must be threshold")
	}
	after := SnapshotCheckCounters()
	if got := after.Checks - before.Checks; got != 4 {
		t.Fatalf("checks advanced by %d, want 4", got)
	}
	if got := after.UnsatCacheHits - before.UnsatCacheHits; got != 2 {
		t.Fatalf("unsat cache hits advanced by %d, want 2", got)
	}
	if got := after.BudgetBailouts - before.BudgetBailouts; got != 0 {
		t.Fatalf("budget bailouts advanced by %d, want 0", got)
	}
	if after.Races != 0 || after.PbsatWins != 0 {
		t.Fatalf("deprecated counters must stay zero: %+v", after)
	}
}

// TestPBRefutationDirect solves the raw check system of x0·x1 + x2·x3
// with the ILP, bypassing the Checker and its cache: the rejection must
// be a proven infeasibility, the only kind of verdict the UNSAT cache
// may store.
func TestPBRefutationDirect(t *testing.T) {
	tt := truth.New(4)
	for m := 0; m < tt.Size(); m++ {
		tt.Set(m, (m&1 != 0 && m&2 != 0) || (m&4 != 0 && m&8 != 0))
	}
	sys, ok := buildCheckSystem(tt, 0, 1, 0)
	if !ok {
		t.Fatal("buildCheckSystem rejected a unate function")
	}
	var solver ilp.Solver
	res := solver.Solve(sys.problem())
	if res.Status != ilp.Infeasible || !res.Proven() {
		t.Fatalf("refutation: status %v, limit hit %v; want proven infeasible", res.Status, res.LimitHit)
	}
}
