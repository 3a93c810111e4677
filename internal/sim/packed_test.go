package sim

import (
	"fmt"
	"strings"
	"testing"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/mcnc"
	"tels/internal/network"
	"tels/internal/opt"
)

// synthPair synthesizes one benchmark for the packed/scalar cross-checks.
func synthPair(t *testing.T, name string) Pair {
	t.Helper()
	src := mcnc.Build(name)
	tn, _, err := core.Synthesize(opt.Algebraic(src), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return Pair{Name: name, Bool: src, Threshold: tn}
}

// TestFailureRatePackedMatchesScalar pins the tentpole property: the
// packed Fig. 11 inner loop counts exactly the failures the scalar oracle
// counts, trial for trial, on real synthesized benchmarks.
func TestFailureRatePackedMatchesScalar(t *testing.T) {
	pairs := []Pair{synthPair(t, "cm152a"), synthPair(t, "maj5"), synthPair(t, "rd53")}
	for _, v := range []float64{0.4, 0.8, 1.6, 2.4} {
		cfg := FailureRateConfig{Trials: 8, Seed: 7}
		packed, err := FailureRate(pairs, v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scalar = true
		scalar, err := FailureRate(pairs, v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if packed != scalar {
			t.Fatalf("v=%g: packed rate %f != scalar rate %f", v, packed, scalar)
		}
	}
}

// TestEquivalentPackedAgreesWithScalar: both equivalence paths accept a
// correct synthesis and reject a corrupted one with a located mismatch.
func TestEquivalentPackedAgreesWithScalar(t *testing.T) {
	pair := synthPair(t, "cm85a")
	if err := Equivalent(pair.Bool, pair.Threshold, 1); err != nil {
		t.Fatalf("packed: %v", err)
	}
	if err := EquivalentScalar(pair.Bool, pair.Threshold, 1); err != nil {
		t.Fatalf("scalar: %v", err)
	}
	// Corrupt one gate's threshold so some vector must flip.
	bad := pair.Threshold.Gates[0]
	old := bad.T
	bad.T = old + 100
	perr := Equivalent(pair.Bool, pair.Threshold, 1)
	serr := EquivalentScalar(pair.Bool, pair.Threshold, 1)
	bad.T = old
	if perr == nil || serr == nil {
		t.Fatalf("corruption not detected: packed=%v scalar=%v", perr, serr)
	}
	if !strings.Contains(perr.Error(), "mismatches") {
		t.Fatalf("packed error lacks location: %v", perr)
	}
}

// TestEquivalentFallsBackBeyondFaninLimit: a gate too wide for the packed
// engine (fanin > fsim.PackedFaninLimit) routes the check through the
// scalar oracle instead of failing, and FailureRate likewise still works.
func TestEquivalentFallsBackBeyondFaninLimit(t *testing.T) {
	const n = 14 // > fsim.PackedFaninLimit, ≤ fsim.ExhaustiveInputs
	nw := network.New("wideor")
	fanins := make([]*network.Node, n)
	cubes := make([]string, n)
	for i := 0; i < n; i++ {
		fanins[i] = nw.AddInput(fmt.Sprintf("x%d", i))
		c := strings.Repeat("-", n)
		cubes[i] = c[:i] + "1" + c[i+1:]
	}
	f := nw.AddNode("f", fanins, logic.MustCover(cubes...))
	nw.MarkOutput(f)

	tn := core.NewNetwork("wideor")
	g := &core.Gate{Name: "f", T: 1}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("x%d", i)
		tn.AddInput(name)
		g.Inputs = append(g.Inputs, name)
		g.Weights = append(g.Weights, 1)
	}
	if err := tn.AddGate(g); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")

	if err := Equivalent(nw, tn, 1); err != nil {
		t.Fatal(err)
	}
	rate, err := FailureRate([]Pair{{Name: "wideor", Bool: nw, Threshold: tn}}, 0,
		FailureRateConfig{Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0 {
		t.Fatalf("zero-noise failure rate = %f", rate)
	}
}
