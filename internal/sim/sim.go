// Package sim validates synthesized threshold networks against their
// source Boolean networks and implements the Monte-Carlo weight
// perturbation experiments of §VI-C: every synthesized benchmark is
// simulated with disturbed weights w' = w + v·U(−0.5, 0.5) and counted as
// failed if any input vector produces a wrong output.
//
// The hot paths (Equivalent's simulation sweep and FailureRate's
// Monte-Carlo inner loop) run word-parallel through internal/fsim, 64
// vectors per machine word, on the vectors fsim.Vectors picks (all of
// them up to fsim.ExhaustiveInputs inputs, a random sample beyond);
// the scalar evaluators in this package remain
// the correctness oracle (FailureRateConfig.Scalar and EquivalentScalar
// force them), and both paths consume the seeded RNG streams identically,
// so packed and scalar runs produce the same results.
package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"tels/internal/core"
	"tels/internal/fsim"
	"tels/internal/network"
)

// Vectors produces the input assignments used for checking nw, by the
// rule of fsim.Vectors: exhaustive when the input count is at most
// fsim.ExhaustiveInputs, otherwise `samples` random vectors drawn from
// rng.
func Vectors(nw *network.Network, samples int, rng *rand.Rand) []map[string]bool {
	n := len(nw.Inputs)
	if n <= fsim.ExhaustiveInputs {
		out := make([]map[string]bool, 0, 1<<uint(n))
		for m := 0; m < 1<<uint(n); m++ {
			in := make(map[string]bool, n)
			for i, node := range nw.Inputs {
				in[node.Name] = m&(1<<uint(i)) != 0
			}
			out = append(out, in)
		}
		return out
	}
	out := make([]map[string]bool, 0, samples)
	for v := 0; v < samples; v++ {
		in := make(map[string]bool, n)
		for _, node := range nw.Inputs {
			in[node.Name] = rng.Intn(2) == 1
		}
		out = append(out, in)
	}
	return out
}

// inputNames returns the Boolean network's primary-input names in order.
func inputNames(nw *network.Network) []string {
	names := make([]string, len(nw.Inputs))
	for i, in := range nw.Inputs {
		names[i] = in.Name
	}
	return names
}

// Equivalent checks that the threshold network computes the same outputs
// as the Boolean network on all vectors (or a random sample for wide
// networks). It returns a descriptive error on the first mismatch. The
// sweep runs word-parallel when both networks compile for the packed
// engine, and falls back to EquivalentScalar otherwise (e.g. a gate
// beyond fsim.PackedFaninLimit).
func Equivalent(nw *network.Network, tn *core.Network, seed int64) error {
	bsim, berr := fsim.CompileBool(nw)
	tsim, terr := fsim.CompileThresh(tn)
	if berr != nil || terr != nil {
		return EquivalentScalar(nw, tn, seed)
	}
	rng := rand.New(rand.NewSource(seed))
	batch, err := fsim.Vectors(inputNames(nw), fsim.DefaultSamples, rng)
	if err != nil {
		return err
	}
	want, err := bsim.Eval(batch)
	if err != nil {
		return err
	}
	got, err := tsim.Eval(batch)
	if err != nil {
		return err
	}
	if vec, out, bad := batch.FirstDiff(want, got); bad {
		in := batch.Assignment(vec)
		return fmt.Errorf("sim: output %s mismatches on %v: boolean=%v threshold=%v",
			nw.Outputs[out].Name, in, fsim.Bit(want[out], vec), fsim.Bit(got[out], vec))
	}
	return nil
}

// EquivalentScalar is the one-vector-at-a-time oracle behind Equivalent.
func EquivalentScalar(nw *network.Network, tn *core.Network, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	bev, err := nw.NewEvaluator()
	if err != nil {
		return err
	}
	tev, err := tn.NewEvaluator()
	if err != nil {
		return err
	}
	var want, got []bool
	for _, in := range Vectors(nw, fsim.DefaultSamples, rng) {
		want, err = bev.Eval(in, want)
		if err != nil {
			return err
		}
		got, err = tev.Eval(in, got)
		if err != nil {
			return err
		}
		for i := range want {
			if want[i] != got[i] {
				return fmt.Errorf("sim: output %s mismatches on %v: boolean=%v threshold=%v",
					nw.Outputs[i].Name, in, want[i], got[i])
			}
		}
	}
	return nil
}

// Perturbation is one Monte-Carlo disturbance of a threshold network's
// weights, aligned with an Evaluator's gate order.
type Perturbation struct {
	noise [][]float64
}

// PerturbFor draws a disturbance with multiplier v for the evaluator's
// network: each weight receives an independent v·U(−0.5, 0.5) offset, per
// §VI-C.
func PerturbFor(ev *core.Evaluator, v float64, rng *rand.Rand) *Perturbation {
	return &Perturbation{noise: drawNoise(ev.GateOrder(), v, rng)}
}

// Noise exposes the per-gate weight offsets in evaluator gate order (the
// layout core.Evaluator.EvalPerturbed and fsim.ThreshSim.EvalPerturbed
// both accept).
func (p *Perturbation) Noise() [][]float64 { return p.noise }

// drawNoise samples one §VI-C disturbance for gates in evaluation order.
// Both the scalar and packed paths draw through here, so they consume the
// RNG identically.
func drawNoise(order []*core.Gate, v float64, rng *rand.Rand) [][]float64 {
	noise := make([][]float64, len(order))
	for gi, g := range order {
		n := make([]float64, len(g.Weights))
		for i := range n {
			n[i] = v * (rng.Float64() - 0.5)
		}
		noise[gi] = n
	}
	return noise
}

// Perturb draws a disturbance for the network (convenience wrapper that
// builds a fresh evaluator; use PerturbFor in hot loops).
func Perturb(tn *core.Network, v float64, rng *rand.Rand) *Perturbation {
	ev, err := tn.NewEvaluator()
	if err != nil {
		panic(err) // networks passed here are always validated
	}
	return PerturbFor(ev, v, rng)
}

// EvalPerturbed evaluates the threshold network under the disturbance.
func EvalPerturbed(tn *core.Network, p *Perturbation, inputs map[string]bool) ([]bool, error) {
	ev, err := tn.NewEvaluator()
	if err != nil {
		return nil, err
	}
	out, err := ev.EvalPerturbed(inputs, p.noise, nil)
	if err != nil {
		return nil, err
	}
	return append([]bool(nil), out...), nil
}

// FailsUnderPerturbation reports whether the disturbed threshold network
// produces a wrong output on any of the vectors ("the circuit fails if
// there exists any input vector with which TELS generates a wrong output
// value under the disturbed weights").
func FailsUnderPerturbation(nw *network.Network, tn *core.Network, p *Perturbation,
	vectors []map[string]bool) (bool, error) {
	bev, err := nw.NewEvaluator()
	if err != nil {
		return false, err
	}
	tev, err := tn.NewEvaluator()
	if err != nil {
		return false, err
	}
	return failsWith(bev, tev, p, vectors)
}

func failsWith(bev *network.Evaluator, tev *core.Evaluator, p *Perturbation,
	vectors []map[string]bool) (bool, error) {
	var want, got []bool
	var err error
	for _, in := range vectors {
		want, err = bev.Eval(in, want)
		if err != nil {
			return false, err
		}
		got, err = tev.EvalPerturbed(in, p.noise, got)
		if err != nil {
			return false, err
		}
		for i := range want {
			if want[i] != got[i] {
				return true, nil
			}
		}
	}
	return false, nil
}

// FailureRateConfig controls a Monte-Carlo failure-rate measurement.
type FailureRateConfig struct {
	Trials  int   // disturbed instances per circuit (default 10)
	Samples int   // random vectors for wide circuits (default fsim.DefaultSamples)
	Seed    int64 // RNG seed
	// Scalar forces the one-vector-at-a-time oracle path instead of the
	// packed fsim engine (for cross-checks and benchmarks; both paths
	// produce identical results).
	Scalar bool
}

// FailureRate measures the fraction of (circuit, disturbance) trials that
// fail under multiplier v. The paper reports the percentage of benchmarks
// failing; with one trial per benchmark that statistic is very coarse, so
// the default runs several independent disturbances per circuit and pools
// them (documented in EXPERIMENTS.md). Circuits are processed in
// parallel; each draws from its own deterministic RNG stream, so the
// result depends only on cfg.Seed, never on scheduling.
func FailureRate(pairs []Pair, v float64, cfg FailureRateConfig) (float64, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 10
	}
	if cfg.Samples <= 0 {
		cfg.Samples = fsim.DefaultSamples
	}
	if len(pairs) == 0 {
		return 0, fmt.Errorf("sim: no trials")
	}
	failures := make([]int, len(pairs))
	errs := make([]error, len(pairs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pairs) {
		workers = len(pairs)
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				failures[i], errs[i] = pairFailures(pairs[i], v, cfg, int64(i))
			}
		}()
	}
	for i := range pairs {
		work <- i
	}
	close(work)
	wg.Wait()
	failed := 0
	for i := range pairs {
		if errs[i] != nil {
			return 0, errs[i]
		}
		failed += failures[i]
	}
	return float64(failed) / float64(len(pairs)*cfg.Trials), nil
}

// pairFailures runs the trials for one circuit with a per-pair RNG
// stream: word-parallel through fsim when both networks compile for the
// packed engine, through the scalar oracle otherwise. The two paths draw
// vectors and disturbances in the same RNG order and the packed perturbed
// evaluator reproduces the scalar float association exactly, so they
// count the same failures.
func pairFailures(pair Pair, v float64, cfg FailureRateConfig, idx int64) (int, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 1_000_003*idx))
	if !cfg.Scalar {
		bsim, berr := fsim.CompileBool(pair.Bool)
		tsim, terr := fsim.CompileThresh(pair.Threshold)
		if berr == nil && terr == nil {
			return packedPairFailures(pair, bsim, tsim, v, cfg, rng)
		}
	}
	vectors := Vectors(pair.Bool, cfg.Samples, rng)
	bev, err := pair.Bool.NewEvaluator()
	if err != nil {
		return 0, err
	}
	tev, err := pair.Threshold.NewEvaluator()
	if err != nil {
		return 0, err
	}
	failed := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		p := PerturbFor(tev, v, rng)
		bad, err := failsWith(bev, tev, p, vectors)
		if err != nil {
			return 0, err
		}
		if bad {
			failed++
		}
	}
	return failed, nil
}

// packedPairFailures is the Fig. 11/12 inner loop on the packed engine:
// the golden outputs are evaluated once per pair, then each disturbance
// re-derives the gate fire tables and sweeps all vectors 64 lanes at a
// time.
func packedPairFailures(pair Pair, bsim *fsim.BoolSim, tsim *fsim.ThreshSim,
	v float64, cfg FailureRateConfig, rng *rand.Rand) (int, error) {
	batch, err := fsim.Vectors(inputNames(pair.Bool), cfg.Samples, rng)
	if err != nil {
		return 0, err
	}
	ref, err := bsim.Eval(batch)
	if err != nil {
		return 0, err
	}
	golden := make([][]uint64, len(ref))
	for o := range ref {
		golden[o] = append([]uint64(nil), ref[o]...)
	}
	order := tsim.GateOrder()
	failed := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		noise := drawNoise(order, v, rng)
		got, err := tsim.EvalPerturbed(batch, noise)
		if err != nil {
			return 0, err
		}
		if batch.Differs(golden, got) {
			failed++
		}
	}
	return failed, nil
}

// Pair couples a Boolean reference network with its synthesized threshold
// implementation.
type Pair struct {
	Name      string
	Bool      *network.Network
	Threshold *core.Network
}
