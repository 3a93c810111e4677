package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"tels/internal/ilp"
	"tels/internal/mcnc"
	"tels/internal/opt"
	"tels/internal/simplex"
	"tels/internal/truth"
)

// Random wider functions, margins and weight caps through the FuzzCheck
// referee. The name dates from when two engines raced on every check;
// the identity now held is between the check, its independent oracles
// and the warm checker.
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
		refereeCheck(t, rng, tt, don, doff, maxW)
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
// non-threshold, stored neither as SAT nor as UNSAT), never as a proven
// result. The instance's root LP relaxation is fractional, so a 1-node
// budget stops branch and bound before any integer point.
func TestBudgetBailoutNotCached(t *testing.T) {
	tt := weightedTable([]int{8, 13, -17, -6, -15, 10, 10, -13, 8}, -3)
	sys, ok := buildCheckSystem(tt, 0, 1, 0)
	if !ok {
		t.Fatal("buildCheckSystem rejected a threshold function")
	}
	root := simplex.Solve(sys.problem())
	if root.Status != simplex.Optimal || !slices.ContainsFunc(root.X, func(x float64) bool {
		return math.Abs(x-math.Round(x)) > 1e-6
	}) {
		t.Fatalf("root LP: %v at %v; the fixture needs a fractional vertex", root.Status, root.X)
	}
	tiny := Checker{ILP: ilp.Solver{MaxNodes: 1}}
	for i := 0; i < 3; i++ {
		before := SnapshotCheckCounters()
		if _, ok := tiny.Check(tt, 0, 1, 0); ok {
			t.Fatalf("call %d: a budget bailout must report non-threshold", i)
		}
		after := SnapshotCheckCounters()
		if after.BudgetBailouts == before.BudgetBailouts || after.UnsatCacheHits != before.UnsatCacheHits {
			t.Fatalf("call %d: want a bailout and no stored answer: %+v → %+v", i, before, after)
		}
		if len(tiny.verdicts) != 0 {
			t.Fatalf("call %d: a bailout entered the checker's memo", i)
		}
	}
	var full Checker
	v, ok := full.Check(tt, 0, 1, 0)
	if !ok || !VerifyVector(tt, v, 0, 1) {
		t.Fatalf("default budget: %v;%v, want a verified vector", v, ok)
	}
}

// A repeated feasible check is answered from the memo with the vector a
// cold check gives: the same vector on a repeat, the cold checker's vector
// when some inputs are negated, and never a slice a caller can reach.
func TestVerdictMemoTransparent(t *testing.T) {
	// x0·x̄1 + x0·x̄2, the paper's worked example, in negative phase on x1
	// and x2.
	f := truth.Var(3, 0).And(truth.Var(3, 1).Not()).
		Or(truth.Var(3, 0).And(truth.Var(3, 2).Not()))
	var c Checker
	first, ok := c.Check(f, 0, 1, 0)
	if !ok || !VerifyVector(f, first, 0, 1) {
		t.Fatalf("first check: %v;%v, want a verified vector", first, ok)
	}
	hit, ok := c.Check(f, 0, 1, 0)
	if !ok || !reflect.DeepEqual(hit, first) {
		t.Fatalf("repeat: %v;%v, first check %v", hit, ok, first)
	}
	if len(c.verdicts) != 1 {
		t.Fatalf("memo holds %d entries after a repeat, want 1", len(c.verdicts))
	}

	// The same positive form under other phases: x̄0·x1 + x̄0·x̄2.
	g := f.SubstituteNeg(0).SubstituteNeg(1)
	var cold Checker
	want, wantOK := cold.Check(g, 0, 1, 0)
	got, gotOK := c.Check(g, 0, 1, 0)
	if !gotOK || gotOK != wantOK || !reflect.DeepEqual(got, want) || !VerifyVector(g, got, 0, 1) {
		t.Fatalf("negated inputs: warm %v;%v, cold %v;%v", got, gotOK, want, wantOK)
	}
	if len(c.verdicts) != 1 {
		t.Fatalf("negated inputs added a memo entry: %d, want 1", len(c.verdicts))
	}

	// A caller that edits its vector does not edit the memo.
	hit.Weights[0] += 100
	hit.Weights[1] = -hit.Weights[1]
	if again, _ := c.Check(f, 0, 1, 0); !reflect.DeepEqual(again, first) {
		t.Fatalf("after mutating a returned vector: %v, want %v", again, first)
	}
}

// A weight cap is part of the instance: x0·(x1 + x2) is threshold both
// under cap 2 and uncapped, and the two verdicts are two memo entries,
// each vector within its own cap.
func TestVerdictMemoKeysCap(t *testing.T) {
	g := truth.New(3)
	for m := 0; m < g.Size(); m++ {
		g.Set(m, m&1 != 0 && m&6 != 0)
	}
	var c Checker
	for _, maxW := range []int{2, 0} {
		before := len(c.verdicts)
		v, ok := c.Check(g, 0, 1, maxW)
		if !ok || !VerifyVector(g, v, 0, 1) {
			t.Fatalf("cap %d: %v;%v, want a verified vector", maxW, v, ok)
		}
		for _, w := range v.Weights {
			if maxW > 0 && abs(w) > maxW {
				t.Fatalf("cap %d: weight %d exceeds it", maxW, w)
			}
		}
		if len(c.verdicts) != before+1 {
			t.Fatalf("cap %d: memo grew from %d to %d entries, want one more", maxW, before, len(c.verdicts))
		}
	}
	if len(c.verdicts) != 2 {
		t.Fatalf("memo holds %d entries, want 2", len(c.verdicts))
	}
}

// The float two-phase primal simplex used earlier let its phase-1
// objective row drift over the ~440 pivots of this 10-input check, called
// the root LP of a threshold function infeasible, and the checker stored
// that as proven. Its exact optimum is 421 at 3·w with T = 142.
func TestSimplexDriftNotInfeasible(t *testing.T) {
	tt := weightedTable([]int{2, 7, 9, 12, 18, 3, 18, 8, 5, 11}, 48)
	sys, ok := buildCheckSystem(tt, 2, 1, 0)
	if !ok {
		t.Fatal("buildCheckSystem rejected a threshold function")
	}
	res := simplex.Solve(sys.problem())
	if res.Status != simplex.Optimal || math.Abs(res.Objective-421) > 0.01 {
		t.Fatalf("root LP: %v, objective %v; want optimal 421", res.Status, res.Objective)
	}
}

// Functions that are threshold by construction, up to 9 inputs, through
// checkConstructed.
func TestCheckThresholdByConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 40; iter++ {
		w, T := randomWeights(rng, 2+rng.Intn(8))
		checkConstructed(t, w, T, rng.Intn(3), 1+rng.Intn(2))
	}
}

// Two 9-input checks the two-phase primal could not decide: the first ran
// out of its 20 000 pivots with a corrupted phase-1 tableau, the second
// ran for minutes through the default node budget. Under the default
// budget each must come back proven optimal, with the root LP's value as
// its objective.
func TestWideChecksProvenAtRoot(t *testing.T) {
	for _, c := range []struct {
		w            []int
		T, don, doff int
		want         int
	}{
		{[]int{12, 20, 12, 13, 17, 4, 10, 18, 12}, 69, 1, 1, 313},
		{[]int{-6, 12, -12, 11, 11, 17, 8, -10, -10}, 4, 2, 1, 415},
	} {
		tt := weightedTable(c.w, c.T)
		sys, ok := buildCheckSystem(tt, c.don, c.doff, 0)
		if !ok {
			t.Fatalf("w=%v T=%d: buildCheckSystem rejected a threshold function", c.w, c.T)
		}
		root := simplex.Solve(sys.problem())
		if root.Status != simplex.Optimal || math.Abs(root.Objective-float64(c.want)) > 1e-6 {
			t.Fatalf("w=%v T=%d: root LP %v, objective %v; want optimal %d", c.w, c.T, root.Status, root.Objective, c.want)
		}
		before := SnapshotCheckCounters().BudgetBailouts
		var cold Checker
		v, ok := cold.Check(tt, c.don, c.doff, 0)
		if !ok || !VerifyVector(tt, v, c.don, c.doff) || objective(v) != c.want {
			t.Fatalf("w=%v T=%d: %v;%d ok=%v, want a verified vector of objective %d", c.w, c.T, v.Weights, v.T, ok, c.want)
		}
		if SnapshotCheckCounters().BudgetBailouts != before {
			t.Fatalf("w=%v T=%d: the check counted a budget bailout", c.w, c.T)
		}
	}
}

// Every unate full-support function of up to 3 variables through the
// FuzzCheck referee, uncapped and under every cap from 1 to 3, so the
// exhaustive capped search and the memo identity see the whole space
// rather than a random sample.
func TestPortfolioIdentityExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
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
				refereeCheck(t, rng, tt, 0, 1, maxW)
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
	if res.Status != ilp.Infeasible || res.LimitHit {
		t.Fatalf("refutation: status %v, limit hit %v; want proven infeasible", res.Status, res.LimitHit)
	}
}
