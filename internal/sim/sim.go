// Package sim validates synthesized threshold networks against their
// source Boolean networks and implements the Monte-Carlo weight
// perturbation experiments of §VI-C: every synthesized benchmark is
// simulated with disturbed weights w' = w + v·U(−0.5, 0.5) and counted as
// failed if any input vector produces a wrong output.
//
// The source is the netcore network the flow parsed or built. ProveCore
// proves equivalence with BDDs and falls back to Equivalent when the
// cones outgrow the node budget. Equivalent and FailureRate are one
// golden comparison, fsim.YieldSession: Equivalent is its clean check
// (VerifyClean) and FailureRate runs its Monte-Carlo trial loop
// (Estimate) under the §VI-C weight variation. The session packs the
// vectors fsim.Vectors picks (all of them up to fsim.ExhaustiveInputs
// inputs, a random sample beyond), evaluates the golden outputs once and
// sweeps them 64 vectors per machine word, for threshold gates of any
// fanin. The map-based reference evaluators (network.Network.EvalOutputs,
// core.Gate.EvalPerturbed) are the test oracle this package's tests pin
// those results to.
package sim

import (
	"fmt"
	"runtime"
	"sync"

	"tels/internal/core"
	"tels/internal/fsim"
	"tels/internal/netcore"
)

// Equivalent checks that the threshold network computes the same outputs
// as the Boolean network on all vectors (or a random sample for wide
// networks). It returns a descriptive error on the first mismatch.
func Equivalent(nw *netcore.Network, tn *core.Network, seed int64) error {
	if err := sameOutputs(nw, tn); err != nil {
		return err
	}
	sess, err := fsim.NewYieldSession(nw, tn, fsim.YieldConfig{Seed: seed})
	if err != nil {
		return err
	}
	return sess.VerifyClean(tn)
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

// pairFailures is the Fig. 11/12 inner loop for one circuit: exactly
// cfg.Trials weight disturbances (no early stop), each counted as failed
// if any vector gives a wrong output. The session and the estimate must
// share the seed: Estimate then replays the sampled-vector draws, so the
// disturbances continue the seed stream right after the vectors.
func pairFailures(pair Pair, v float64, cfg FailureRateConfig, seed int64) (int, error) {
	sess, err := fsim.NewYieldSession(pair.Bool, pair.Threshold, fsim.YieldConfig{Samples: cfg.Samples, Seed: seed})
	if err != nil {
		return 0, err
	}
	rep, err := sess.Estimate(fsim.WeightVariation{V: v},
		fsim.YieldConfig{MinTrials: cfg.Trials, MaxTrials: cfg.Trials, Seed: seed})
	if err != nil {
		return 0, err
	}
	return rep.Failures, nil
}

// Pair couples a Boolean reference network with its synthesized threshold
// implementation.
type Pair struct {
	Name      string
	Bool      *netcore.Network
	Threshold *core.Network
}
