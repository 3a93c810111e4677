// Benchmarks regenerating the paper's evaluation, one per table/figure:
//
//	BenchmarkTableI/<name>  — Table I rows: full flow per benchmark (ψ=3)
//	BenchmarkFig10/psi=N    — Fig. 10: comp at each fanin restriction
//	BenchmarkFig11          — Fig. 11: Monte-Carlo failure-rate grid
//	BenchmarkFig12          — Fig. 12: failure rate & area vs δon
//	BenchmarkTiming         — §VI-A: factoring vs synthesis split
//
// plus micro-benchmarks for the substrate (ILP threshold check, kernel
// extraction, node simplification, simplex, network simulation). Prime
// generation is measured by BenchmarkPrimes in internal/truth.
package tels_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"tels/internal/algebra"
	"tels/internal/bdd"
	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/expt"
	"tels/internal/fsim"
	"tels/internal/logic"
	"tels/internal/mcnc"
	"tels/internal/netcore"
	"tels/internal/opt"
	"tels/internal/sim"
	"tels/internal/simplex"
	"tels/internal/truth"
)

// BenchmarkTableI runs the full Table I flow (script.boolean → one-to-one
// and script.algebraic → TELS) for each benchmark of the paper's table.
func BenchmarkTableI(b *testing.B) {
	names := mcnc.TableISet()
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			var gates int
			for i := 0; i < b.N; i++ {
				flow, err := expt.RunFlow(name, core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				gates = flow.TELS.GateCount()
			}
			b.ReportMetric(float64(gates), "TELS-gates")
		})
	}
}

// BenchmarkFig10 sweeps the fanin restriction on comp, as in Fig. 10.
func BenchmarkFig10(b *testing.B) {
	for psi := 3; psi <= 8; psi++ {
		b.Run(fmt.Sprintf("psi=%d", psi), func(b *testing.B) {
			o := core.DefaultOptions()
			o.Fanin = psi
			var one, tels int
			for i := 0; i < b.N; i++ {
				flow, err := expt.RunFlow("comp", o)
				if err != nil {
					b.Fatal(err)
				}
				one = flow.OneToOne.GateCount()
				tels = flow.TELS.GateCount()
			}
			b.ReportMetric(float64(one), "one2one-gates")
			b.ReportMetric(float64(tels), "TELS-gates")
		})
	}
}

// BenchmarkFig11 runs a reduced Monte-Carlo failure-rate grid (the full
// grid is regenerated by cmd/telsbench fig11).
func BenchmarkFig11(b *testing.B) {
	names := expt.DefectSet()[:5]
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig11(names, []float64{0, 1, 2}, []int{0, 2}, 3, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Inner times the Fig. 11 Monte-Carlo inner loop on the
// packed fsim engine: one disturbance trial = draw weight noise, evaluate
// every sample vector, compare every output, with no early exit. (The
// retired scalar arm's 66–277× comparison is recorded in EXPERIMENTS.md
// and BENCH_fig11.json.)
func BenchmarkFig11Inner(b *testing.B) {
	const vectors, v = 512, 0.8
	for _, name := range expt.DefectSet()[:5] {
		src := netcore.FromNetwork(mcnc.Build(name))
		alg, err := opt.Run("algebraic", src)
		if err != nil {
			b.Fatal(err)
		}
		tn, _, err := core.Map("tels", alg, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/packed", func(b *testing.B) {
			tsim, err := fsim.CompileThresh(tn)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			names := make([]string, len(src.Inputs()))
			for i, in := range src.Inputs() {
				names[i] = src.NetName(in)
			}
			batch := fsim.Random(names, vectors, rng)
			ref, err := fsim.EvalBool(src, batch)
			if err != nil {
				b.Fatal(err)
			}
			order := tn.Gates
			noise := make([][]float64, len(order))
			for gi, g := range order {
				noise[gi] = make([]float64, len(g.Weights))
			}
			mismatches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for gi := range noise {
					for j := range noise[gi] {
						noise[gi][j] = v * (rng.Float64() - 0.5)
					}
				}
				got, err := tsim.EvalPerturbed(batch, noise)
				if err != nil {
					b.Fatal(err)
				}
				for o := range got {
					for blk := range got[o] {
						mismatches += bits.OnesCount64(got[o][blk] ^ ref[o][blk])
					}
				}
			}
			b.ReportMetric(float64(vectors*b.N)/b.Elapsed().Seconds(), "vectors/s")
			_ = mismatches
		})
	}
}

// BenchmarkFig12 runs the failure-rate/area tradeoff at v = 0.8.
func BenchmarkFig12(b *testing.B) {
	names := expt.DefectSet()[:5]
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig12(names, 0.8, []int{0, 1, 2, 3}, 3, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTiming measures the §VI-A factoring-vs-synthesis split over the
// small Table I circuits.
func BenchmarkTiming(b *testing.B) {
	names := []string{"cm152a", "cm85a", "pm1", "tcon"}
	for i := 0; i < b.N; i++ {
		rows, err := expt.Timing(names, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		frac := 0.0
		for _, r := range rows {
			frac += r.SynthFraction
		}
		b.ReportMetric(100*frac/float64(len(rows)), "synth-%")
	}
}

// --- substrate micro-benchmarks ---------------------------------------

// BenchmarkThresholdCheck measures one cold ILP threshold check on the
// paper's worked example function: a fresh checker per iteration, so no
// check is answered from a checker's memo.
func BenchmarkThresholdCheck(b *testing.B) {
	f := truth.Var(3, 0).And(truth.Var(3, 1).Not()).
		Or(truth.Var(3, 0).And(truth.Var(3, 2).Not()))
	for i := 0; i < b.N; i++ {
		var chk core.Checker
		if _, ok := chk.Check(f, 0, 1, 0); !ok {
			b.Fatal("not threshold")
		}
	}
}

// BenchmarkThresholdCheckWide measures the check on wide threshold
// functions Σ wᵢxᵢ ≥ T: an 8-input weighted majority, and a 9-input
// function (δon = δoff = 1) that the earlier two-phase primal simplex ran
// out of pivots on. Both are cold, a fresh checker per iteration; warm
// repeats the 9-input check on a checker that has already decided it, so
// it times the memo hit path.
func BenchmarkThresholdCheckWide(b *testing.B) {
	weighted9 := []int{12, 20, 12, 13, 17, 4, 10, 18, 12}
	for _, c := range []struct {
		name   string
		w      []int
		T, don int
		warm   bool
	}{
		{"majority8", []int{1, 2, 3, 4, 5, 6, 7, 8}, 19, 0, false},
		{"weighted9", weighted9, 69, 1, false},
		{"warm", weighted9, 69, 1, true},
	} {
		f := truth.New(len(c.w))
		for m := 0; m < f.Size(); m++ {
			sum := 0
			for i, w := range c.w {
				if m&(1<<uint(i)) != 0 {
					sum += w
				}
			}
			f.Set(m, sum >= c.T)
		}
		b.Run(c.name, func(b *testing.B) {
			var chk core.Checker
			if c.warm {
				chk.Check(f, c.don, 1, 0)
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if !c.warm {
					chk = core.Checker{}
				}
				if _, ok := chk.Check(f, c.don, 1, 0); !ok {
					b.Fatal("not threshold")
				}
			}
		})
	}
}

// BenchmarkSimplex solves the LP relaxation of the worked ILP.
func BenchmarkSimplex(b *testing.B) {
	p := &simplex.Problem{
		C: []float64{1, 1, 1, 1},
		A: [][]float64{
			{-1, -1, 0, 1},
			{-1, 0, -1, 1},
			{0, 1, 1, -1},
			{1, 0, 0, -1},
		},
		B: []float64{0, 0, -1, -1},
	}
	for i := 0; i < b.N; i++ {
		if res := simplex.Solve(p); res.Status != simplex.Optimal {
			b.Fatal(res.Status)
		}
	}
}

// BenchmarkKernels measures kernel enumeration on the factorable
// expression (ab + ac + bc)(e + f) + gh over the variables a..h. It fails
// unless it finds the nine textbook kernels: the expression itself,
// ab + ac + bc, e + f, the three (x + y)(e + f) and the three x + y.
func BenchmarkKernels(b *testing.B) {
	cube := func(vars ...int) algebra.Cube {
		var c algebra.Cube
		for _, v := range vars {
			c = append(c, algebra.MakeLit(v, logic.Pos))
		}
		return c
	}
	e := algebra.Expr{
		cube(0, 1, 4), cube(0, 2, 4), cube(1, 2, 4),
		cube(0, 1, 5), cube(0, 2, 5), cube(1, 2, 5),
		cube(6, 7),
	}
	for i := 0; i < b.N; i++ {
		if ks := algebra.Kernels(e); len(ks) != 9 {
			b.Fatalf("%d kernels, want 9", len(ks))
		}
	}
}

// BenchmarkAlgebraicScript measures the script.algebraic pipeline on the
// cmb benchmark.
func BenchmarkAlgebraicScript(b *testing.B) {
	src := mcnc.Build("cmb")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Algebraic(src)
	}
}

// BenchmarkBooleanScript measures opt.Run("boolean") on i10, the largest
// benchmark. It fails unless the optimized network agrees with the source
// on a random batch of input vectors.
func BenchmarkBooleanScript(b *testing.B) {
	src := netcore.FromNetwork(mcnc.Build("i10"))
	names := make([]string, len(src.Inputs()))
	for i, in := range src.Inputs() {
		names[i] = src.NetName(in)
	}
	batch := fsim.Random(names, 1024, rand.New(rand.NewSource(1)))
	want, err := fsim.EvalBool(src, batch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := opt.Run("boolean", src)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		got, err := fsim.EvalBool(out, batch)
		if err != nil {
			b.Fatal(err)
		}
		if v, o, diff := batch.FirstDiff(want, got); diff {
			b.Fatalf("output %d differs from the source on vector %d", o, v)
		}
		b.StartTimer()
	}
}

// BenchmarkSimplifyWideNode measures opt.SimplifyNodesCore on its worst
// case: one net of opt.SimplifyMaxVars fanins whose function is a dense
// random table, written as one cube per minterm. It fails unless the
// simplified net computes the same table.
func BenchmarkSimplifyWideNode(b *testing.B) {
	n := opt.SimplifyMaxVars
	rng := rand.New(rand.NewSource(1))
	want := truth.New(n)
	cover := logic.NewCover(n)
	for m := 0; m < want.Size(); m++ {
		if rng.Intn(2) == 0 {
			continue
		}
		want.Set(m, true)
		c := logic.NewCube(n)
		for v := range c {
			c[v] = logic.Phase(m >> uint(v) & 1)
		}
		cover.AddCube(c)
	}
	src := netcore.New("wide")
	ins := make([]netcore.Net, n)
	for i := range ins {
		ins[i] = src.AddInput(fmt.Sprintf("x%d", i))
	}
	src.MarkOutput(src.AddNode("y", ins, cover))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw := src.Clone()
		b.StartTimer()
		if opt.SimplifyNodesCore(nw) != 1 {
			b.Fatal("the net was not simplified")
		}
		b.StopTimer()
		got, err := nw.NetLocalTT(nw.NetByName("y"), nw.Inputs())
		if err != nil || !got.Equal(want) {
			b.Fatalf("the simplified net is not equivalent to its table (%v)", err)
		}
		b.StartTimer()
	}
}

// BenchmarkSynthesizeOnly measures TELS synthesis alone (factored network
// prepared outside the loop) on cm85a.
func BenchmarkSynthesizeOnly(b *testing.B) {
	alg, err := opt.Run("algebraic", netcore.FromNetwork(mcnc.Build("cm85a")))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Map("tels", alg, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeWide measures TELS synthesis alone on the
// algebraically factored cordic at ψ = 8 with weights capped at 3 (the
// perfbench wide workload's third configuration), where node collapsing
// composes the widest functions. It fails unless the last result is
// proved equivalent to the source.
func BenchmarkSynthesizeWide(b *testing.B) {
	src := netcore.FromNetwork(mcnc.Build("cordic"))
	alg, err := opt.Run("algebraic", src)
	if err != nil {
		b.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Fanin, o.MaxWeight = 8, 3
	var tn *core.Network
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tn, _, err = core.Map("tels", alg, o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	res, err := sim.ProveCore(src, tn, 1)
	if err != nil {
		b.Fatal(err)
	}
	if res != sim.Proved {
		b.Fatalf("result = %v, want proved", res)
	}
}

// yieldX1SHA256 pins the JSON yield report BenchmarkYield measures.
const yieldX1SHA256 = "dc6cce1637d65a27b5fc19664cd62f65ae0386fd4c65477db47a24d41f557d91"

// BenchmarkYield measures fsim.EstimateYield on x1 after BLIF text →
// algebraic → tels, the slowest of telsd's yield jobs, at the settings
// those jobs use: weight variation v = 0.8, 256 trials with no early
// stop, seed 1. It fails unless the last report, critical-gate ranking
// included, hashes to the pinned value.
func BenchmarkYield(b *testing.B) {
	text, err := blif.WriteString(mcnc.Build("x1"))
	if err != nil {
		b.Fatal(err)
	}
	src, err := blif.ParseCoreString(text)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := opt.Run("algebraic", src)
	if err != nil {
		b.Fatal(err)
	}
	tn, _, err := core.Map("tels", alg, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := fsim.YieldConfig{MaxTrials: 256, HalfWidth: 1e-9, Seed: 1}
	var rep *fsim.YieldReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err = fsim.EstimateYield(src, tn, fsim.WeightVariation{V: 0.8}, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	js, err := json.Marshal(rep)
	if err != nil {
		b.Fatal(err)
	}
	if sum := sha256.Sum256(js); hex.EncodeToString(sum[:]) != yieldX1SHA256 {
		b.Fatalf("x1 yield report hashes to %x, want %s", sum, yieldX1SHA256)
	}
}

// BenchmarkSimulation measures the equivalence check used to validate
// every synthesized network.
func BenchmarkSimulation(b *testing.B) {
	src := mcnc.Build("cm152a")
	tn, _, err := core.Synthesize(opt.Algebraic(src), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	nc := netcore.FromNetwork(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Equivalent(nc, tn, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProve measures sim.ProveCore, the BDD equivalence proof, on
// i10's boolean → one-to-one network, the slowest proof in the golden
// corpus. It fails unless the proof completes without falling back to
// simulation.
func BenchmarkProve(b *testing.B) {
	src := netcore.FromNetwork(mcnc.Build("i10"))
	optimized, err := opt.Run("boolean", src)
	if err != nil {
		b.Fatal(err)
	}
	tn, _, err := core.Map("one2one", optimized, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.ProveCore(src, tn, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res != sim.Proved {
			b.Fatalf("result = %v, want proved", res)
		}
	}
}

// BenchmarkBDDThreshold measures compiling a wide weighted LTG to a BDD.
func BenchmarkBDDThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := bdd.New(16, 0)
		inputs := make([]bdd.Ref, 16)
		weights := make([]int, 16)
		for j := range inputs {
			v, err := m.Var(j)
			if err != nil {
				b.Fatal(err)
			}
			inputs[j] = v
			weights[j] = j%5 - 2
		}
		if _, err := m.Threshold(inputs, weights, 3); err != nil {
			b.Fatal(err)
		}
	}
}
