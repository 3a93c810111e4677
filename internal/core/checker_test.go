package core

import (
	"math/rand"
	"sync"
	"testing"

	"tels/internal/ilp"
	"tels/internal/mcnc"
	"tels/internal/opt"
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

// twoPairs is x0·x1 + x2·x3: unate with full support but not threshold.
func twoPairs() *truth.Table {
	tt := truth.New(4)
	for m := 0; m < tt.Size(); m++ {
		tt.Set(m, (m&1 != 0 && m&2 != 0) || (m&4 != 0 && m&8 != 0))
	}
	return tt
}

// A checker's proven-UNSAT results must change timing only, never
// verdicts, and must register hits on repeated rejections.
func TestUnsatCacheTransparent(t *testing.T) {
	tt := twoPairs()
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

// A rejection proved by one checker is a hit for that checker only: a
// second checker proves it again, so runs share no check state.
func TestUnsatResultsPerChecker(t *testing.T) {
	tt := twoPairs()
	var first, second Checker
	hits := func(c *Checker) int64 {
		t.Helper()
		before := SnapshotCheckCounters().UnsatCacheHits
		if _, ok := c.Check(tt, 0, 1, 0); ok {
			t.Fatal("expected non-threshold")
		}
		return SnapshotCheckCounters().UnsatCacheHits - before
	}
	if h := hits(&first); h != 0 {
		t.Fatalf("first checker, first check: %d hits, want 0", h)
	}
	if h := hits(&first); h != 1 {
		t.Fatalf("first checker, repeat: %d hits, want 1", h)
	}
	if h := hits(&second); h != 0 {
		t.Fatalf("second checker answered from the first one's results (%d hits)", h)
	}
	if h := hits(&second); h != 1 {
		t.Fatalf("second checker, repeat: %d hits, want 1", h)
	}
}

// Two ψ = 8 runs at once share no check state: each produces the network
// of a run done alone, and together they register exactly twice its
// UNSAT hits. Under -race any shared mutable state between them shows.
func TestSynthesizeConcurrentRuns(t *testing.T) {
	o := DefaultOptions()
	o.Fanin = 8
	run := func() (string, error) {
		tn, _, err := Synthesize(opt.Algebraic(mcnc.Build("comp")), o)
		if err != nil {
			return "", err
		}
		return tn.String(), nil
	}
	before := SnapshotCheckCounters().UnsatCacheHits
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	solo := SnapshotCheckCounters().UnsatCacheHits - before
	if solo == 0 {
		t.Fatal("test premise broken: comp at ψ = 8 registers no UNSAT hits")
	}

	before = SnapshotCheckCounters().UnsatCacheHits
	var wg sync.WaitGroup
	got := make([]string, 2)
	errs := make([]error, 2)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Fatalf("concurrent run %d differs from the solo run", i)
		}
	}
	if both := SnapshotCheckCounters().UnsatCacheHits - before; both != 2*solo {
		t.Fatalf("two concurrent runs registered %d UNSAT hits, want 2×%d", both, solo)
	}
}

// A tiny ILP budget must surface as a budget bailout (declared
// non-threshold, nothing stored), never as a proven UNSAT result.
func TestBudgetBailoutNotCached(t *testing.T) {
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
		// The bailout must not have entered the checker's UNSAT
		// results: the same checker solves again and bails out again.
		again := SnapshotCheckCounters()
		if _, ok := tiny.Check(tt, 0, 1, 0); ok {
			t.Fatal("repeated bailout must report non-threshold")
		}
		after := SnapshotCheckCounters()
		if after.UnsatCacheHits != again.UnsatCacheHits || after.BudgetBailouts == again.BudgetBailouts {
			t.Fatalf("repeated check on the tiny budget was answered from stored results: %+v → %+v", again, after)
		}
		// With the full budget the verdict matches the LP separability
		// oracle.
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
// reaches the ILP or the checker's stored results counts once, a repeated rejection counts
// as a cache hit, and the deprecated race fields stay zero.
func TestPortfolioCounters(t *testing.T) {
	tt := twoPairs()
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
// with the ILP, bypassing the Checker and its stored results: the
// rejection must be a proven infeasibility, the only kind of verdict a
// checker may store.
func TestPBRefutationDirect(t *testing.T) {
	tt := twoPairs()
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
