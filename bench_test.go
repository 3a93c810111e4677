// Benchmarks regenerating the paper's evaluation, one per table/figure:
//
//	BenchmarkTableI/<name>  — Table I rows: full flow per benchmark (ψ=3)
//	BenchmarkFig10/psi=N    — Fig. 10: comp at each fanin restriction
//	BenchmarkFig11          — Fig. 11: Monte-Carlo failure-rate grid
//	BenchmarkFig12          — Fig. 12: failure rate & area vs δon
//	BenchmarkTiming         — §VI-A: factoring vs synthesis split
//
// plus micro-benchmarks for the substrate (ILP threshold check, QM prime
// generation, kernel extraction, simplex, network simulation).
package tels_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"tels/internal/algebra"
	"tels/internal/bdd"
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
			bsim, err := fsim.CompileBool(src)
			if err != nil {
				b.Fatal(err)
			}
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
			golden, err := bsim.Eval(batch)
			if err != nil {
				b.Fatal(err)
			}
			ref := make([][]uint64, len(golden))
			for o := range golden {
				ref[o] = append([]uint64(nil), golden[o]...)
			}
			order := tsim.GateOrder()
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

// BenchmarkThresholdCheck measures one ILP threshold check on the paper's
// worked example function.
func BenchmarkThresholdCheck(b *testing.B) {
	f := truth.Var(3, 0).And(truth.Var(3, 1).Not()).
		Or(truth.Var(3, 0).And(truth.Var(3, 2).Not()))
	var chk core.Checker
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := chk.Check(f, 0, 1, 0); !ok {
			b.Fatal("not threshold")
		}
	}
}

// BenchmarkThresholdCheckWide measures the check on a 8-input threshold
// function (weighted majority).
func BenchmarkThresholdCheckWide(b *testing.B) {
	n := 8
	f := truth.New(n)
	for m := 0; m < f.Size(); m++ {
		sum := 0
		for i := 0; i < n; i++ {
			if m&(1<<uint(i)) != 0 {
				sum += i + 1
			}
		}
		f.Set(m, sum >= 19)
	}
	var chk core.Checker
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := chk.Check(f, 0, 1, 0); !ok {
			b.Fatal("not threshold")
		}
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

// BenchmarkPrimes measures prime generation per table shape: N variables
// × ON-set density (dense 2/3, sparse 1/64, sparse 1/1024). Dense N=16 is
// left out: it has over a hundred thousand primes.
func BenchmarkPrimes(b *testing.B) {
	densities := []struct {
		name     string
		num, den int
	}{{"dense", 2, 3}, {"sparse64", 1, 64}, {"sparse1024", 1, 1024}}
	for _, n := range []int{4, 8, 10, 12, 16} {
		for _, d := range densities {
			if n == 16 && d.name == "dense" {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, d.name), func(b *testing.B) {
				rng := rand.New(rand.NewSource(5))
				f := truth.New(n)
				for m := 0; m < f.Size(); m++ {
					f.Set(m, rng.Intn(d.den) < d.num)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					primesSink = f.Primes()
				}
			})
		}
	}
}

var primesSink []logic.Cube

// BenchmarkKernels measures kernel enumeration on a factorable cover.
func BenchmarkKernels(b *testing.B) {
	cover := logic.MustCover(
		"11--1---", "1-1-1---", "-11-1---",
		"11---1--", "1-1--1--", "-11--1--",
		"------11",
	)
	e := algebra.FromCover(cover)
	for i := 0; i < b.N; i++ {
		if ks := algebra.Kernels(e); len(ks) == 0 {
			b.Fatal("no kernels")
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

// BenchmarkSynthesizeOnly measures TELS synthesis alone (factored network
// prepared outside the loop) on cm85a.
func BenchmarkSynthesizeOnly(b *testing.B) {
	alg := opt.Algebraic(mcnc.Build("cm85a"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Synthesize(alg, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkProve measures the BDD equivalence proof of a synthesized comp
// (32 inputs — beyond exhaustive simulation).
func BenchmarkProve(b *testing.B) {
	src := mcnc.Build("comp")
	tn, _, err := core.Synthesize(opt.Algebraic(src), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Prove(src, tn, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res != sim.Proved {
			b.Fatal("expected a proof")
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
