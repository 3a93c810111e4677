// Package sim validates synthesized threshold networks against their
// source Boolean networks and implements the Monte-Carlo weight
// perturbation experiments of §VI-C: every synthesized benchmark is
// simulated with disturbed weights w' = w + v·U(−0.5, 0.5) and counted as
// failed if any input vector produces a wrong output.
//
// Both Equivalent's simulation sweep and FailureRate's Monte-Carlo inner
// loop run word-parallel through internal/fsim, 64 vectors per machine
// word, on the vectors fsim.Vectors picks (all of them up to
// fsim.ExhaustiveInputs inputs, a random sample beyond), for threshold
// gates of any fanin. The map-based reference evaluators
// (network.Network.EvalOutputs, core.Gate.EvalPerturbed) are the test
// oracle this package's tests pin those results to.
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
// networks). It returns a descriptive error on the first mismatch.
func Equivalent(nw *network.Network, tn *core.Network, seed int64) error {
	if err := sameOutputs(nw, tn); err != nil {
		return err
	}
	bsim, err := fsim.CompileBool(nw)
	if err != nil {
		return err
	}
	tsim, err := fsim.CompileThresh(tn)
	if err != nil {
		return err
	}
	batch := fsim.Vectors(inputNames(nw), fsim.DefaultSamples, rand.New(rand.NewSource(seed)))
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

// FailureRateConfig controls a Monte-Carlo failure-rate measurement.
type FailureRateConfig struct {
	Trials  int   // disturbed instances per circuit (default 10)
	Samples int   // random vectors for wide circuits (default fsim.DefaultSamples)
	Seed    int64 // RNG seed
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
				failures[i], errs[i] = pairFailures(pairs[i], v, cfg, pairSeed(cfg.Seed, i))
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

// pairSeed is the seed of pair i's private RNG stream.
func pairSeed(seed int64, i int) int64 { return seed + 1_000_003*int64(i) }

// pairFailures is the Fig. 11/12 inner loop for one circuit: the golden
// outputs are evaluated once, then each disturbance (drawn after the
// vectors from the same stream) re-derives the gate fire tables and
// sweeps all vectors 64 lanes at a time.
func pairFailures(pair Pair, v float64, cfg FailureRateConfig, seed int64) (int, error) {
	bsim, err := fsim.CompileBool(pair.Bool)
	if err != nil {
		return 0, err
	}
	tsim, err := fsim.CompileThresh(pair.Threshold)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	batch := fsim.Vectors(inputNames(pair.Bool), cfg.Samples, rng)
	ref, err := bsim.Eval(batch)
	if err != nil {
		return 0, err
	}
	golden := make([][]uint64, len(ref))
	for o := range ref {
		golden[o] = append([]uint64(nil), ref[o]...)
	}
	model := fsim.WeightVariation{V: v}
	failed := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		got, err := tsim.EvalDefect(batch, model.Draw(tsim, rng), nil)
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
