package fsim

import (
	"testing"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/netcore"
)

// andPair builds a 2-input AND as both a Boolean and a threshold network.
func andPair(t *testing.T) (*netcore.Network, *core.Network) {
	t.Helper()
	nw := netcore.New("and")
	a, b := nw.AddInput("a"), nw.AddInput("b")
	f := nw.AddNode("f", []netcore.Net{a, b}, logic.MustCover("11"))
	nw.MarkOutput(f)
	tn := core.NewNetwork("and")
	tn.AddInput("a")
	tn.AddInput("b")
	if err := tn.AddGate(&core.Gate{Name: "f", Inputs: []string{"a", "b"}, Weights: []int{1, 1}, T: 2}); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")
	return nw, tn
}

// TestYieldPerfectUnderNoNoise: with zero-variation weights the yield is
// 1 and the estimator stops at the trial floor.
func TestYieldPerfectUnderNoNoise(t *testing.T) {
	nw, tn := andPair(t)
	rep, err := EstimateYield(nw, tn, WeightVariation{V: 0}, YieldConfig{MaxTrials: 500, MinTrials: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 || rep.Yield != 1 {
		t.Fatalf("unexpected failures: %+v", rep)
	}
	if !rep.EarlyStopped {
		t.Fatalf("expected early stop at a zero failure rate: %+v", rep)
	}
	if rep.Trials >= 500 {
		t.Fatalf("early stopping did not shorten the run: %d trials", rep.Trials)
	}
	if len(rep.Critical) != 0 {
		t.Fatalf("no gate should be blamed: %+v", rep.Critical)
	}
}

// TestYieldZeroUnderCertainFault: a gate certainly stuck fails every
// trial; the estimator converges to failure rate 1 and blames the gate.
func TestYieldZeroUnderCertainFault(t *testing.T) {
	nw, tn := andPair(t)
	rep, err := EstimateYield(nw, tn, StuckAt{P: 1}, YieldConfig{MaxTrials: 500, MinTrials: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != rep.Trials || rep.Yield != 0 {
		t.Fatalf("expected certain failure: %+v", rep)
	}
	if len(rep.Critical) != 1 || rep.Critical[0].Gate != "f" || rep.Critical[0].Blamed == 0 {
		t.Fatalf("gate f should carry all blame: %+v", rep.Critical)
	}
}

// TestYieldDeterministic: identical configs give identical reports.
func TestYieldDeterministic(t *testing.T) {
	nw, tn := andPair(t)
	cfg := YieldConfig{MaxTrials: 200, MinTrials: 16, Seed: 42}
	a, err := EstimateYield(nw, tn, WeightVariation{V: 2.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateYield(nw, tn, WeightVariation{V: 2.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trials != b.Trials || a.Failures != b.Failures || a.FailureRate != b.FailureRate {
		t.Fatalf("non-deterministic yield: %+v vs %+v", a, b)
	}
}

// TestYieldCIBracketsRate: the Wilson interval always contains the point
// estimate, and drift/stuck models produce sane reports too.
func TestYieldCIBracketsRate(t *testing.T) {
	nw, tn := andPair(t)
	for _, model := range []DefectModel{
		WeightVariation{V: 1.5},
		ThresholdDrift{V: 1.5},
		StuckAt{P: 0.2},
	} {
		rep, err := EstimateYield(nw, tn, model, YieldConfig{MaxTrials: 300, MinTrials: 16, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Lo > rep.FailureRate || rep.Hi < rep.FailureRate {
			t.Fatalf("%s: CI [%f, %f] misses rate %f", model.Name(), rep.Lo, rep.Hi, rep.FailureRate)
		}
		if rep.Trials == 0 || rep.Trials > 300 {
			t.Fatalf("%s: bad trial count %d", model.Name(), rep.Trials)
		}
	}
}

// TestWilson sanity-checks the interval math.
func TestWilson(t *testing.T) {
	lo, hi := wilson(0, 100, 1.96)
	if lo != 0 || hi > 0.05 {
		t.Fatalf("wilson(0,100) = [%f, %f]", lo, hi)
	}
	lo, hi = wilson(50, 100, 1.96)
	if lo > 0.5 || hi < 0.5 || hi-lo > 0.25 {
		t.Fatalf("wilson(50,100) = [%f, %f]", lo, hi)
	}
	lo, hi = wilson(100, 100, 1.96)
	if hi < 0.99 || lo < 0.9 {
		t.Fatalf("wilson(100,100) = [%f, %f]", lo, hi)
	}
}
