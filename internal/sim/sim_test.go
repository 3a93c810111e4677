package sim

import (
	"testing"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/network"
)

// buildPair synthesizes a small comparator-flavoured network.
func buildPair(t *testing.T, deltaOn int) Pair {
	t.Helper()
	b := network.NewBuilder("pairnet")
	a0 := b.Input("a0")
	a1 := b.Input("a1")
	b0 := b.Input("b0")
	b1 := b.Input("b1")
	eq0 := b.Xnor("eq0", a0, b0)
	eq1 := b.Xnor("eq1", a1, b1)
	eq := b.And("eq", eq0, eq1)
	gt := b.Or("gt",
		b.Node("g1", logic.MustCover("10"), a1, b1),
		b.And("g2", eq1, b.Node("g0", logic.MustCover("10"), a0, b0)))
	b.Output(eq)
	b.Output(gt)
	tn, _, err := core.Synthesize(b.Net, core.Options{Fanin: 3, DeltaOn: deltaOn, DeltaOff: 1})
	if err != nil {
		t.Fatal(err)
	}
	return Pair{Name: "pairnet", Bool: b.Net, Threshold: tn}
}

func TestEquivalentAccepts(t *testing.T) {
	p := buildPair(t, 0)
	if err := Equivalent(p.Bool, p.Threshold, 1); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentDetectsMismatch(t *testing.T) {
	p := buildPair(t, 0)
	// Corrupt one gate's threshold hard enough to change behaviour.
	p.Threshold.Gates[0].T += 100
	if err := Equivalent(p.Bool, p.Threshold, 1); err == nil {
		t.Fatal("corrupted network accepted")
	}
}

func TestZeroPerturbationNeverFails(t *testing.T) {
	rate, err := FailureRate([]Pair{buildPair(t, 0)}, 0, FailureRateConfig{Trials: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0 {
		t.Fatalf("zero perturbation failed %.2f of trials", rate)
	}
}

func TestSmallPerturbationWithinMargin(t *testing.T) {
	// With δon=0 the ON side has no margin, so any v > 0 may fail — that
	// is the paper's Fig. 11 motivation. With δon=1 and δoff=1 both sides
	// have margin 1; a multiplier v drifts any weighted sum by at most
	// fanin·v/2 = 0.15 < 1, so no failures can occur.
	rate, err := FailureRate([]Pair{buildPair(t, 1)}, 0.1, FailureRateConfig{Trials: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0 {
		t.Fatalf("v=0.1 must stay within the δ margins, failed %.2f of trials", rate)
	}
}

func TestLargePerturbationEventuallyFails(t *testing.T) {
	p := buildPair(t, 0)
	rate, err := FailureRate([]Pair{p}, 3.0, FailureRateConfig{Trials: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rate == 0 {
		t.Fatal("v=3 should cause failures on a δon=0 network")
	}
}

func TestDefectToleranceImprovesRobustness(t *testing.T) {
	// Failure rate at fixed v must not increase when δon grows (Fig. 11).
	v := 1.2
	rate0, err := FailureRate([]Pair{buildPair(t, 0)}, v, FailureRateConfig{Trials: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rate3, err := FailureRate([]Pair{buildPair(t, 3)}, v, FailureRateConfig{Trials: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rate3 > rate0 {
		t.Fatalf("failure rate grew with δon: %.2f -> %.2f", rate0, rate3)
	}
}

func TestFailureRateMonotoneInV(t *testing.T) {
	p := buildPair(t, 0)
	cfg := FailureRateConfig{Trials: 60, Seed: 13}
	r1, err := FailureRate([]Pair{p}, 0.2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := FailureRate([]Pair{p}, 2.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < r1 {
		t.Fatalf("failure rate not increasing with v: %.2f at 0.2 vs %.2f at 2.5", r1, r2)
	}
}

func TestFailureRateEmptyPairs(t *testing.T) {
	if _, err := FailureRate(nil, 1, FailureRateConfig{}); err == nil {
		t.Fatal("empty pair list must error")
	}
}

func TestFailureRateDeterministic(t *testing.T) {
	pairs := []Pair{buildPair(t, 0), buildPair(t, 1), buildPair(t, 2)}
	cfg := FailureRateConfig{Trials: 20, Seed: 5}
	a, err := FailureRate(pairs, 1.1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b, err := FailureRate(pairs, 1.1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("parallel FailureRate not deterministic: %v vs %v", a, b)
		}
	}
}
