package fsim

import (
	"encoding/json"
	"math/rand"
	"testing"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/netcore"
)

// andOrPair builds a two-output netlist whose blame ranking under
// stuck-at defects is known a priori: g_and = a∧b and g_or = a∨b, both
// primary outputs. Over the four polarity combinations of StuckAt{P:1},
// g_and flips 1 or 3 of the four lanes (expected 2 per trial) and is
// first in topological order, so it takes the blame on every lane it
// flips; g_or is only blamed on lanes g_and leaves clean (expected 1 per
// trial). The ranking must therefore come out [g_and, g_or].
func andOrPair(t *testing.T) (*netcore.Network, *core.Network) {
	t.Helper()
	nw := netcore.New("pair")
	a, b := nw.AddInput("a"), nw.AddInput("b")
	ga := nw.AddNode("g_and", []netcore.Net{a, b}, logic.MustCover("11"))
	go_ := nw.AddNode("g_or", []netcore.Net{a, b}, logic.MustCover("1-", "-1"))
	nw.MarkOutput(ga)
	nw.MarkOutput(go_)
	tn := core.NewNetwork("pair")
	tn.AddInput("a")
	tn.AddInput("b")
	if err := tn.AddGate(&core.Gate{Name: "g_and", Inputs: []string{"a", "b"}, Weights: []int{1, 1}, T: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tn.AddGate(&core.Gate{Name: "g_or", Inputs: []string{"a", "b"}, Weights: []int{1, 1}, T: 1}); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("g_and")
	tn.MarkOutput("g_or")
	return nw, tn
}

// TestStuckAtBlameRanking checks the first-flip attribution end to end
// under the StuckAt model: every trial fails (some lane always flips at
// P=1), both gates appear in Critical, and the topologically earlier
// g_and — which flips twice as many lanes in expectation — outranks
// g_or.
func TestStuckAtBlameRanking(t *testing.T) {
	nw, tn := andOrPair(t)
	cfg := YieldConfig{MaxTrials: 200, MinTrials: 200, Seed: 5}
	rep, err := EstimateYield(nw, tn, StuckAt{P: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != rep.Trials || rep.Yield != 0 {
		t.Fatalf("P=1 stuck-at must fail every trial: %+v", rep)
	}
	if len(rep.Critical) != 2 {
		t.Fatalf("both gates should carry blame: %+v", rep.Critical)
	}
	first, second := rep.Critical[0], rep.Critical[1]
	if first.Gate != "g_and" || second.Gate != "g_or" {
		t.Fatalf("ranking = [%s, %s], want [g_and, g_or]", first.Gate, second.Gate)
	}
	if first.Blamed <= second.Blamed {
		t.Fatalf("g_and should out-blame g_or: %+v", rep.Critical)
	}
	for _, gi := range rep.Critical {
		if gi.Flipped < gi.Blamed {
			t.Fatalf("%s: flipped %d < blamed %d", gi.Gate, gi.Flipped, gi.Blamed)
		}
		if gi.Blamed == 0 {
			t.Fatalf("%s: never blamed despite P=1 faults: %+v", gi.Gate, rep.Critical)
		}
	}
	// Expected blame per trial is 2 lanes for g_and and 1 for g_or;
	// allow generous Monte-Carlo slack around the 2:1 ratio.
	if first.Blamed < rep.Trials || second.Blamed > rep.Trials {
		t.Fatalf("blame far from the a-priori 2:1 split over %d trials: %+v", rep.Trials, rep.Critical)
	}
}

// TestStuckAtSessionMatchesOneShot: estimating through a reused
// YieldSession must reproduce the standalone EstimateYield report
// exactly, stuck-at model included.
func TestStuckAtSessionMatchesOneShot(t *testing.T) {
	nw, tn := andOrPair(t)
	cfg := YieldConfig{MaxTrials: 300, MinTrials: 64, Seed: 9}
	model := StuckAt{P: 0.3}
	one, err := EstimateYield(nw, tn, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewYieldSession(nw, tn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := sess.EstimateFor(tn, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(one)
		b, _ := json.Marshal(got)
		if string(a) != string(b) {
			t.Fatalf("session estimate %d diverges:\n one-shot: %s\n session:  %s", i, a, b)
		}
	}
}

// alternateStuck is a deterministic defect model that sticks exactly one
// gate output at 1 per trial, cycling through the gates in order. It
// exists to manufacture exact blame ties between gates in disjoint
// fanin cones.
type alternateStuck struct{ trial int }

func (m *alternateStuck) Name() string { return "alternate-stuck" }

func (m *alternateStuck) Draw(s *ThreshSim, _ *rand.Rand) *Defect {
	stuck := make([]int8, len(s.tn.Gates))
	for i := range stuck {
		stuck[i] = -1
	}
	stuck[m.trial%len(stuck)] = 1
	m.trial++
	return &Defect{Stuck: stuck}
}

// TestCriticalTieBreakByName: two buffer gates in disjoint cones, each
// stuck-at-1 on alternate trials, accumulate identical blame and flip
// counts. The ranking's final tie-break must order them by gate name —
// "alpha" before "zeta" — even though "zeta" comes first topologically,
// and the report must serialize to identical bytes on every run.
func TestCriticalTieBreakByName(t *testing.T) {
	nw := netcore.New("tie")
	a, b := nw.AddInput("a"), nw.AddInput("b")
	z := nw.AddNode("zeta", []netcore.Net{a}, logic.MustCover("1"))
	al := nw.AddNode("alpha", []netcore.Net{b}, logic.MustCover("1"))
	nw.MarkOutput(z)
	nw.MarkOutput(al)
	tn := core.NewNetwork("tie")
	tn.AddInput("a")
	tn.AddInput("b")
	if err := tn.AddGate(&core.Gate{Name: "zeta", Inputs: []string{"a"}, Weights: []int{1}, T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tn.AddGate(&core.Gate{Name: "alpha", Inputs: []string{"b"}, Weights: []int{1}, T: 1}); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("zeta")
	tn.MarkOutput("alpha")

	// Two trials, no early stop: trial 0 sticks zeta (flips the two a=0
	// lanes), trial 1 sticks alpha (flips the two b=0 lanes). Each gate
	// ends at Blamed=2, Flipped=2.
	cfg := YieldConfig{MaxTrials: 2, MinTrials: 2, Seed: 1}
	run := func() *YieldReport {
		rep, err := EstimateYield(nw, tn, &alternateStuck{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	want := []GateImpact{
		{Gate: "alpha", Blamed: 2, Flipped: 2},
		{Gate: "zeta", Blamed: 2, Flipped: 2},
	}
	if len(rep.Critical) != 2 || rep.Critical[0] != want[0] || rep.Critical[1] != want[1] {
		t.Fatalf("tie not broken by name: %+v, want %+v", rep.Critical, want)
	}
	base, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := json.Marshal(run())
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(base) {
			t.Fatalf("run %d report not byte-stable:\n%s\nvs\n%s", i, base, again)
		}
	}
}

// TestCriticalByteStable: repeated estimates with randomized models and
// equal seeds serialize to identical bytes — the determinism contract
// the resyn loop and the service cache both lean on.
func TestCriticalByteStable(t *testing.T) {
	nw, tn := andOrPair(t)
	for _, model := range []DefectModel{
		StuckAt{P: 0.4},
		WeightVariation{V: 1.5},
		ThresholdDrift{V: 1.5},
	} {
		cfg := YieldConfig{MaxTrials: 250, MinTrials: 64, Seed: 13}
		base, err := EstimateYield(nw, tn, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bb, _ := json.Marshal(base)
		for i := 0; i < 3; i++ {
			rep, err := EstimateYield(nw, tn, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rb, _ := json.Marshal(rep)
			if string(rb) != string(bb) {
				t.Fatalf("%s run %d not byte-stable:\n%s\nvs\n%s", model.Name(), i, bb, rb)
			}
		}
	}
}
