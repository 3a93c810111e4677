package resyn

import (
	"context"
	"encoding/json"
	"testing"

	"tels/internal/core"
	"tels/internal/fsim"
	"tels/internal/logic"
	"tels/internal/netcore"
)

// aoi builds f = (a AND b) OR (c AND d) as a Boolean network plus its
// δon=0 threshold implementation, a three-gate circuit with enough
// structure for blame to move between gates as the loop hardens them.
func aoi(t *testing.T) (*netcore.Network, *core.Network) {
	t.Helper()
	nw := netcore.New("aoi")
	a, b := nw.AddInput("a"), nw.AddInput("b")
	c, d := nw.AddInput("c"), nw.AddInput("d")
	g1 := nw.AddNode("g1", []netcore.Net{a, b}, logic.MustCover("11"))
	g2 := nw.AddNode("g2", []netcore.Net{c, d}, logic.MustCover("11"))
	f := nw.AddNode("f", []netcore.Net{g1, g2}, logic.MustCover("1-", "-1"))
	nw.MarkOutput(f)

	tn, _, err := core.Map("tels", nw, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return nw, tn
}

func defaultCfg() Config {
	return Config{
		Model: fsim.WeightVariation{V: 0.9},
		Yield: fsim.YieldConfig{MaxTrials: 400, MinTrials: 64, Seed: 7},
		Synth: core.DefaultOptions(),
		TopK:  2,
	}
}

// TestDeriveReplacementSingleGate: an AND gate re-derived at a higher
// margin stays a single gate (the scaling property) and the new vector
// actually carries that margin.
func TestDeriveReplacementSingleGate(t *testing.T) {
	g := &core.Gate{Name: "g", Inputs: []string{"a", "b"}, Weights: []int{1, 1}, T: 2}
	o := core.DefaultOptions()
	r, err := deriveReplacement(g, 3, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.decomposed || r.frag.GateCount() != 1 {
		t.Fatalf("expected a single-gate replacement, got %d gates (decomposed=%v)",
			r.frag.GateCount(), r.decomposed)
	}
	ng := r.frag.Gate(repOutput)
	tt := gateTruth(g)
	if !core.VerifyVector(tt, core.WeightVector{Weights: ng.Weights, T: ng.T}, 3, o.DeltaOff) {
		t.Fatalf("replacement vector w=%v T=%d does not carry δon=3", ng.Weights, ng.T)
	}
}

// TestDeriveReplacementDecomposeFallback: under a weight cap, f = a ∨ bc
// admits no single-gate vector at δon=1, so the loop must re-decompose —
// and every gate of the decomposed fragment must itself carry the raised
// margin, proving the per-node override reached the synthesizer.
func TestDeriveReplacementDecomposeFallback(t *testing.T) {
	// w = (2,1,1), T = 2 realises a ∨ bc at δon=0, δoff=1.
	g := &core.Gate{Name: "g", Inputs: []string{"a", "b", "c"}, Weights: []int{2, 1, 1}, T: 2}
	o := core.DefaultOptions()
	o.MaxWeight = 2

	tt := gateTruth(g)
	var chk core.Checker
	if _, ok := chk.Check(tt, 1, o.DeltaOff, 0); !ok {
		t.Fatal("test premise broken: function should be threshold without the cap")
	}
	if _, ok := chk.Check(tt, 1, o.DeltaOff, o.MaxWeight); ok {
		t.Fatal("test premise broken: δon=1 should be infeasible under max weight 2")
	}

	r, err := deriveReplacement(g, 1, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.decomposed || r.frag.GateCount() < 2 {
		t.Fatalf("expected a decomposed replacement, got %d gates", r.frag.GateCount())
	}
	// Functional equivalence over all minterms.
	for m := 0; m < tt.Size(); m++ {
		in := map[string]bool{}
		for i := 0; i < tt.N(); i++ {
			in[repInput(i)] = m>>uint(i)&1 == 1
		}
		out, err := r.frag.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != tt.Get(m) {
			t.Fatalf("fragment differs from source at minterm %d", m)
		}
	}
	// Margin check gate by gate: the override must have raised every
	// part gate, not just the root.
	for _, fg := range r.frag.Gates {
		ftt := gateTruth(fg)
		if !core.VerifyVector(ftt, core.WeightVector{Weights: fg.Weights, T: fg.T}, 1, o.DeltaOff) {
			t.Fatalf("fragment gate %s (w=%v T=%d) lacks δon=1", fg.Name, fg.Weights, fg.T)
		}
	}
}

// TestSplicePreservesFunction: hardening one gate must not change the
// network's Boolean function.
func TestSplicePreservesFunction(t *testing.T) {
	nw, tn := aoi(t)
	name := tn.Gates[0].Name
	r, err := deriveReplacement(tn.Gate(name), 2, core.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	next, added, err := splice(tn, name, r)
	if err != nil {
		t.Fatal(err)
	}
	if added[0] != name {
		t.Fatalf("splice should keep the gate name, got %v", added)
	}
	sess, err := fsim.NewYieldSession(nw, tn, fsim.YieldConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.VerifyClean(next); err != nil {
		t.Fatalf("spliced network is not functionally clean: %v", err)
	}
}

// TestRunHardensToTarget: under weight variation the loop must raise
// yield monotonically enough to hit a reachable target, spending area to
// do it, and the hardened network must stay functionally clean.
func TestRunHardensToTarget(t *testing.T) {
	nw, tn := aoi(t)
	cfg := defaultCfg()
	cfg.TargetYield = 0.95
	cfg.MaxIters = 12

	rep, err := Run(context.Background(), nw, tn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stop != StopTargetYield {
		t.Fatalf("expected target-yield stop, got %q (final yield %.3f)", rep.Stop, rep.FinalYield)
	}
	if rep.FinalYield < cfg.TargetYield || rep.FinalYield < rep.InitialYield {
		t.Fatalf("yield did not improve to target: %.3f → %.3f", rep.InitialYield, rep.FinalYield)
	}
	if rep.FinalArea <= rep.InitialArea {
		t.Fatalf("hardening should cost area: %d → %d", rep.InitialArea, rep.FinalArea)
	}
	if rep.HardenedGates == 0 || len(rep.Iterations) < 2 {
		t.Fatalf("loop did no work: %+v", rep)
	}
	sess, err := fsim.NewYieldSession(nw, tn, cfg.Yield)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.VerifyClean(rep.Network); err != nil {
		t.Fatalf("hardened network broke functionality: %v", err)
	}
	// The loop must not have touched the input network.
	if tn.Area() != rep.InitialArea {
		t.Fatalf("input network mutated: area %d vs initial %d", tn.Area(), rep.InitialArea)
	}
}

// TestRunDeterministic: identical configs give byte-identical reports.
func TestRunDeterministic(t *testing.T) {
	nw, tn := aoi(t)
	cfg := defaultCfg()
	cfg.TargetYield = 0.95
	a, err := Run(context.Background(), nw, tn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), nw, tn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("non-deterministic run:\n%s\nvs\n%s", ja, jb)
	}
	if a.Network.String() != b.Network.String() {
		t.Fatal("non-deterministic hardened network")
	}
}

// TestRunCallbackStreams: OnIteration fires once per recorded iteration,
// in order.
func TestRunCallbackStreams(t *testing.T) {
	nw, tn := aoi(t)
	cfg := defaultCfg()
	cfg.TargetYield = 0.95
	var seen []int
	cfg.OnIteration = func(it Iteration) { seen = append(seen, it.Iter) }
	rep, err := Run(context.Background(), nw, tn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(rep.Iterations) {
		t.Fatalf("callback fired %d times for %d iterations", len(seen), len(rep.Iterations))
	}
	for i, iter := range seen {
		if iter != i {
			t.Fatalf("out-of-order callback: %v", seen)
		}
	}
}

// TestRunMemoReuse: a second run over the same circuit with a shared
// memo re-derives nothing.
func TestRunMemoReuse(t *testing.T) {
	nw, tn := aoi(t)
	cfg := defaultCfg()
	cfg.TargetYield = 0.95
	cfg.Memo = MapMemo{}

	cold, err := Run(context.Background(), nw, tn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), nw, tn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.HardenedGates {
		t.Fatalf("warm run should be fully memoised: %d hits for %d hardenings",
			warm.CacheHits, warm.HardenedGates)
	}
	if cold.FinalYield != warm.FinalYield || cold.FinalArea != warm.FinalArea {
		t.Fatalf("memo changed the result: %.3f/%d vs %.3f/%d",
			cold.FinalYield, cold.FinalArea, warm.FinalYield, warm.FinalArea)
	}
}

// TestRunAreaBudget: a budget at the initial area blocks every hardening
// and stops the loop immediately with the right reason.
func TestRunAreaBudget(t *testing.T) {
	nw, tn := aoi(t)
	cfg := defaultCfg()
	cfg.TargetYield = 0.9999
	cfg.AreaBudget = tn.Area()
	rep, err := Run(context.Background(), nw, tn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stop != StopAreaBudget {
		t.Fatalf("expected area-budget stop, got %q", rep.Stop)
	}
	if rep.FinalArea != rep.InitialArea || rep.HardenedGates != 0 {
		t.Fatalf("budget was not respected: %+v", rep)
	}
}

// TestRunStuckAtConverges: margins cannot fix stuck-at defects, so the
// loop must terminate via its caps rather than spin.
func TestRunStuckAtConverges(t *testing.T) {
	nw, tn := aoi(t)
	cfg := defaultCfg()
	cfg.Model = fsim.StuckAt{P: 0.05}
	cfg.TargetYield = 0.9999
	cfg.MaxIters = 3
	cfg.MaxDeltaOn = 2
	rep, err := Run(context.Background(), nw, tn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	switch rep.Stop {
	case StopMaxIters, StopConverged:
	default:
		t.Fatalf("expected cap/convergence stop under stuck-at, got %q", rep.Stop)
	}
}

// TestRunCancellation: a cancelled context aborts between iterations.
func TestRunCancellation(t *testing.T) {
	nw, tn := aoi(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, nw, tn, defaultCfg()); err == nil {
		t.Fatal("expected a context error")
	}
}
