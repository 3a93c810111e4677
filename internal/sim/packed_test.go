package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tels/internal/core"
	"tels/internal/fsim"
	"tels/internal/logic"
	"tels/internal/mcnc"
	"tels/internal/netcore"
	"tels/internal/opt"
)

// synthPair synthesizes one benchmark for the oracle cross-checks, with
// ON-side margin deltaOn.
func synthPair(t *testing.T, name string, deltaOn int) Pair {
	t.Helper()
	src := mcnc.Build(name)
	o := core.DefaultOptions()
	o.DeltaOn = deltaOn
	tn, _, err := core.Synthesize(opt.Algebraic(src), o)
	if err != nil {
		t.Fatal(err)
	}
	return Pair{Name: name, Bool: netcore.FromNetwork(src), Threshold: tn}
}

// wideOrPair is a 14-input OR and its single 14-input threshold gate
// (weights 2, threshold 1: an ON-side margin of 1) — wider than any fsim
// fire table, and still exhaustively simulated.
func wideOrPair(t *testing.T) Pair {
	t.Helper()
	const n = fsim.ExhaustiveInputs
	nw := netcore.New("wideor")
	fanins := make([]netcore.Net, n)
	cubes := make([]string, n)
	for i := 0; i < n; i++ {
		fanins[i] = nw.AddInput(fmt.Sprintf("x%d", i))
		c := strings.Repeat("-", n)
		cubes[i] = c[:i] + "1" + c[i+1:]
	}
	nw.MarkOutput(nw.AddNode("f", fanins, logic.MustCover(cubes...)))

	tn := core.NewNetwork("wideor")
	g := &core.Gate{Name: "f", T: 1}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("x%d", i)
		tn.AddInput(name)
		g.Inputs = append(g.Inputs, name)
		g.Weights = append(g.Weights, 2)
	}
	if err := tn.AddGate(g); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")
	return Pair{Name: "wideor", Bool: nw, Threshold: tn}
}

// inputNames returns the Boolean network's primary-input names in order,
// the columns of the batch the oracles sweep.
func inputNames(nw *netcore.Network) []string {
	names := make([]string, len(nw.Inputs()))
	for i, in := range nw.Inputs() {
		names[i] = nw.NetName(in)
	}
	return names
}

// scalarFails is the one-vector-at-a-time reference for one disturbance:
// whether the threshold network, every gate's weights offset by noise
// (aligned with TopoGates; nil = exact weights), computes a wrong output
// on any batch vector. It walks the gates through core.Gate.EvalPerturbed
// and takes the golden outputs from network.Network.EvalOutputs.
func scalarFails(t *testing.T, pair Pair, batch *fsim.Batch, order []*core.Gate, noise [][]float64) bool {
	t.Helper()
	var buf []bool
	golden := pair.Bool.ToNetwork()
	for m := 0; m < batch.Len(); m++ {
		in := batch.Assignment(m)
		want, err := golden.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		var got []bool
		if noise == nil {
			if got, err = pair.Threshold.EvalOutputs(in); err != nil {
				t.Fatal(err)
			}
		} else {
			val := make(map[string]bool, len(in)+len(order))
			for k, v := range in {
				val[k] = v
			}
			for gi, g := range order {
				buf = buf[:0]
				for _, name := range g.Inputs {
					buf = append(buf, val[name])
				}
				val[g.Name] = g.EvalPerturbed(buf, noise[gi])
			}
			for _, o := range pair.Threshold.Outputs {
				got = append(got, val[o])
			}
		}
		for o := range want {
			if want[o] != got[o] {
				return true
			}
		}
	}
	return false
}

// scalarFailureRate is the test oracle for FailureRate: the same per-pair
// seeds, the same fsim.Vectors batch, and the §VI-C noise drawn gate-major,
// weight-minor after it — but every vector evaluated by the scalar
// reference. cfg must carry explicit Trials and Samples.
func scalarFailureRate(t *testing.T, pairs []Pair, v float64, cfg FailureRateConfig) float64 {
	t.Helper()
	failed := 0
	for i, pair := range pairs {
		rng := rand.New(rand.NewSource(pairSeed(cfg.Seed, i)))
		batch := fsim.Vectors(inputNames(pair.Bool), cfg.Samples, rng)
		order, err := pair.Threshold.TopoGates()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < cfg.Trials; trial++ {
			noise := make([][]float64, len(order))
			for gi, g := range order {
				noise[gi] = make([]float64, len(g.Weights))
				for j := range noise[gi] {
					noise[gi][j] = v * (rng.Float64() - 0.5)
				}
			}
			if scalarFails(t, pair, batch, order, noise) {
				failed++
			}
		}
	}
	return float64(failed) / float64(len(pairs)*cfg.Trials)
}

// TestFailureRatePackedMatchesScalar pins the Fig. 11 inner loop to the
// scalar oracle: FailureRate counts exactly the failures the oracle
// counts, trial for trial, on real synthesized benchmarks and on a
// 14-input gate evaluated lane by lane. The margins and multipliers keep
// most pooled rates strictly between 0 and 1, so a trial miscounted on
// either side shows.
func TestFailureRatePackedMatchesScalar(t *testing.T) {
	cases := []struct {
		pairs []Pair
		vs    []float64
	}{
		{[]Pair{synthPair(t, "cm152a", 1), synthPair(t, "maj5", 1), synthPair(t, "rd53", 1)}, []float64{0.8, 1.2, 1.6, 2.4}},
		{[]Pair{wideOrPair(t)}, []float64{0, 2.5}},
	}
	for _, c := range cases {
		for _, v := range c.vs {
			cfg := FailureRateConfig{Trials: 8, Samples: fsim.DefaultSamples, Seed: 7}
			packed, err := FailureRate(c.pairs, v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if scalar := scalarFailureRate(t, c.pairs, v, cfg); packed != scalar {
				t.Fatalf("%s v=%g: packed rate %f != scalar rate %f", c.pairs[0].Name, v, packed, scalar)
			}
		}
	}
}

// TestEquivalentPackedAgreesWithScalar checks that Equivalent accepts a
// correct synthesis that the scalar reference accepts on the same
// vectors, and rejects a corrupted one the reference also rejects, with
// a located mismatch.
func TestEquivalentPackedAgreesWithScalar(t *testing.T) {
	pair := synthPair(t, "cm85a", 0)
	batch := fsim.Vectors(inputNames(pair.Bool), fsim.DefaultSamples, rand.New(rand.NewSource(1)))
	if err := Equivalent(pair.Bool, pair.Threshold, 1); err != nil {
		t.Fatalf("packed: %v", err)
	}
	if scalarFails(t, pair, batch, nil, nil) {
		t.Fatal("scalar reference rejects the synthesis")
	}
	// Corrupt one gate's threshold so some vector must flip.
	bad := pair.Threshold.Gates[0]
	old := bad.T
	bad.T = old + 100
	perr := Equivalent(pair.Bool, pair.Threshold, 1)
	sbad := scalarFails(t, pair, batch, nil, nil)
	bad.T = old
	if perr == nil || !sbad {
		t.Fatalf("corruption not detected: packed=%v scalar=%v", perr, sbad)
	}
	if !strings.Contains(perr.Error(), "mismatches") {
		t.Fatalf("packed error lacks location: %v", perr)
	}
}

// TestEquivalentWideGate: a gate wider than any fire table compiles for
// fsim, and Equivalent checks it exhaustively — accepting the 14-input OR
// and naming the output and input assignment of the first mismatch once
// its threshold is raised to 3.
func TestEquivalentWideGate(t *testing.T) {
	pair := wideOrPair(t)
	if _, err := fsim.CompileThresh(pair.Threshold); err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(pair.Bool, pair.Threshold, 1); err != nil {
		t.Fatal(err)
	}
	pair.Threshold.Gates[0].T = 3
	// Vector 1 (x0 alone) is the first the raised threshold rejects.
	err := Equivalent(pair.Bool, pair.Threshold, 1)
	if err == nil || !strings.Contains(err.Error(), "output f mismatches on map[x0:true x1:false x10:false") ||
		!strings.HasSuffix(err.Error(), "]: boolean=true threshold=false") {
		t.Fatalf("T=3 accepted or unlocated: %v", err)
	}
}
