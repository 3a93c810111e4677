package fsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"tels/internal/core"
	"tels/internal/netcore"
)

// YieldConfig controls a Monte-Carlo yield measurement.
type YieldConfig struct {
	// MaxTrials caps the defect instances drawn (default 2000).
	MaxTrials int
	// MinTrials is the floor before early stopping may strike
	// (default 64).
	MinTrials int
	// HalfWidth is the target confidence-interval half-width on the
	// failure rate; sampling stops once the Wilson interval is at least
	// this tight (default 0.02).
	HalfWidth float64
	// Samples is the random-vector count for networks wider than
	// ExhaustiveInputs (default DefaultSamples).
	Samples int
	// Seed drives both vector sampling and defect drawing.
	Seed int64
}

func (c YieldConfig) withDefaults() YieldConfig {
	if c.MaxTrials <= 0 {
		c.MaxTrials = 2000
	}
	if c.MinTrials <= 0 {
		c.MinTrials = 64
	}
	if c.MinTrials > c.MaxTrials {
		c.MinTrials = c.MaxTrials
	}
	if c.HalfWidth <= 0 {
		c.HalfWidth = 0.02
	}
	if c.Samples <= 0 {
		c.Samples = DefaultSamples
	}
	return c
}

// GateImpact ranks one gate's contribution to observed failures.
type GateImpact struct {
	// Gate names the threshold gate.
	Gate string `json:"gate"`
	// Blamed counts failing (trial, vector) pairs attributed to this
	// gate: it was the first gate in topological order whose output
	// flipped on that lane, i.e. the gate whose noise margin was
	// violated before the error propagated.
	Blamed int `json:"blamed"`
	// Flipped counts every (trial, vector) pair in failing trials where
	// the gate's output differed from its clean value, attributed or not.
	Flipped int `json:"flipped"`
}

// YieldReport is the outcome of a yield measurement.
type YieldReport struct {
	Model        string       `json:"model"`
	Trials       int          `json:"trials"`
	Failures     int          `json:"failures"`
	FailureRate  float64      `json:"failure_rate"`
	Yield        float64      `json:"yield"`
	Lo           float64      `json:"ci_lo"`
	Hi           float64      `json:"ci_hi"`
	EarlyStopped bool         `json:"early_stopped"`
	Vectors      int          `json:"vectors"`
	Critical     []GateImpact `json:"critical,omitempty"`
}

// yieldZ is the normal quantile of the yield confidence interval (95%).
const yieldZ = 1.96

// wilson returns the Wilson score interval for fails successes in n
// trials at normal quantile z.
func wilson(fails, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(fails) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	hw := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-hw, center+hw
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// YieldSession is the point-level entry for repeated yield measurements
// of one (golden, implementation) pair: the input batch is packed and the
// golden Boolean reference is evaluated once at session build, then every
// Estimate call reuses them and only re-runs the Monte-Carlo trial loop.
// A sweep over defect models or variation multipliers amortizes the
// packing and reference simulation across all its points.
//
// The shared state is immutable after NewYieldSession, and each Estimate
// call compiles its own private threshold evaluator, so Estimate is safe
// for concurrent use from multiple goroutines.
type YieldSession struct {
	tn     *core.Network
	batch  *Batch
	golden [][]uint64
	seed   int64 // the seed the batch was built with
}

// NewYieldSession packs the vector batch (Vectors, sampling cfg.Samples
// vectors from the cfg.Seed stream for wide networks) and records the
// golden Boolean outputs. Only cfg.Samples and cfg.Seed are read; the
// trial knobs are per-Estimate.
func NewYieldSession(nw *netcore.Network, tn *core.Network, cfg YieldConfig) (*YieldSession, error) {
	cfg = cfg.withDefaults()
	// Probe the threshold side now so an undriven output fails at
	// session build rather than on the first point.
	if _, err := CompileThresh(tn); err != nil {
		return nil, err
	}
	inputs := make([]string, len(nw.Inputs()))
	for i, in := range nw.Inputs() {
		inputs[i] = nw.NetName(in)
	}
	batch := Vectors(inputs, cfg.Samples, rand.New(rand.NewSource(cfg.Seed)))
	golden, err := EvalBool(nw, batch)
	if err != nil {
		return nil, err
	}
	return &YieldSession{tn: tn, batch: batch, golden: golden, seed: cfg.Seed}, nil
}

// Vectors reports the packed vector count shared by every point.
func (s *YieldSession) Vectors() int { return s.batch.Len() }

// VerifyClean checks that tn computes the session's golden outputs on
// every batch vector under exact weights (no defects), naming the first
// differing output and its input assignment. It is sim.Equivalent's
// simulation check, and the re-synthesis loop runs it after splicing
// hardened gates as a cheap functional safety net: a replacement that
// changed the logic would otherwise surface only as a collapsed yield
// estimate.
func (s *YieldSession) VerifyClean(tn *core.Network) error {
	if len(tn.Outputs) != len(s.golden) {
		return fmt.Errorf("fsim: network has %d outputs, session golden has %d",
			len(tn.Outputs), len(s.golden))
	}
	tsim, err := CompileThresh(tn)
	if err != nil {
		return err
	}
	got, err := tsim.Eval(s.batch)
	if err != nil {
		return err
	}
	if vec, o, bad := s.batch.FirstDiff(s.golden, got); bad {
		return fmt.Errorf("fsim: output %s mismatches on %v: boolean=%v threshold=%v",
			tn.Outputs[o], s.batch.Assignment(vec), Bit(s.golden[o], vec), Bit(got[o], vec))
	}
	return nil
}

// Estimate runs one Monte-Carlo yield measurement against the session's
// shared batch and golden outputs. For exhaustive batches the report is
// bit-identical to EstimateYield with the same arguments for any
// cfg.Seed; for randomly sampled batches that equivalence holds when
// cfg.Seed matches the session's build seed (other seeds still measure
// the session's fixed vector sample, with defect draws from cfg.Seed).
func (s *YieldSession) Estimate(model DefectModel, cfg YieldConfig) (*YieldReport, error) {
	return s.EstimateFor(s.tn, model, cfg)
}

// EstimateFor measures tn — any threshold implementation of the session's
// golden network, not just the one the session was built with — against
// the shared batch and golden outputs. The selective re-synthesis loop
// (internal/resyn) uses this to re-estimate each hardened revision of the
// network without re-packing the batch or re-simulating the reference.
func (s *YieldSession) EstimateFor(tn *core.Network, model DefectModel, cfg YieldConfig) (*YieldReport, error) {
	cfg = cfg.withDefaults()
	if len(tn.Outputs) != len(s.golden) {
		return nil, fmt.Errorf("fsim: network has %d outputs, session golden has %d",
			len(tn.Outputs), len(s.golden))
	}
	tsim, err := CompileThresh(tn)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Seed == s.seed && len(s.batch.Inputs()) > ExhaustiveInputs {
		// A sampled batch was drawn from this stream before the first
		// defect; replay that consumption (one Intn(2) per bit,
		// vector-major) so the defect sequence continues where it left
		// off.
		for i := 0; i < s.batch.Len()*len(s.batch.Inputs()); i++ {
			rng.Intn(2)
		}
	}
	return s.estimate(tsim, model, cfg, rng)
}

// EstimateYield measures the fraction of defect instances under which the
// threshold network computes a wrong output on any vector ("the circuit
// fails if there exists any input vector with which TELS generates a
// wrong output value"), stopping early once the failure-rate confidence
// interval is tighter than cfg.HalfWidth. The Boolean network is the
// golden reference; failures are attributed to critical gates by first
// topological flip. Callers measuring many points of the same pair
// should build a YieldSession instead, which packs the batch and golden
// reference once.
func EstimateYield(nw *netcore.Network, tn *core.Network, model DefectModel, cfg YieldConfig) (*YieldReport, error) {
	s, err := NewYieldSession(nw, tn, cfg)
	if err != nil {
		return nil, err
	}
	return s.Estimate(model, cfg)
}

// estimate is the shared trial loop; tsim and rng are private to the
// call, everything reached through s is read-only.
func (s *YieldSession) estimate(tsim *ThreshSim, model DefectModel, cfg YieldConfig, rng *rand.Rand) (*YieldReport, error) {
	batch, golden := s.batch, s.golden
	gates := tsim.tn.Gates
	cleanTrace := makeTrace(len(gates), batch.Words())
	if _, err := tsim.EvalDefect(batch, nil, cleanTrace); err != nil {
		return nil, err
	}
	badTrace := makeTrace(len(gates), batch.Words())
	blamed := make([]int, len(gates))
	flipped := make([]int, len(gates))

	rep := &YieldReport{Model: model.Name(), Vectors: batch.Len()}
	for rep.Trials < cfg.MaxTrials {
		d := model.Draw(tsim, rng)
		out, err := tsim.EvalDefect(batch, d, badTrace)
		if err != nil {
			return nil, err
		}
		rep.Trials++
		failedTrial := false
		for wi := range batch.mask {
			var fail uint64
			for o := range out {
				fail |= out[o][wi] ^ golden[o][wi]
			}
			fail &= batch.mask[wi]
			if fail == 0 {
				continue
			}
			failedTrial = true
			// Attribute each failing lane to the first flipped gate in
			// topological order; once a lane is blamed it is removed so
			// downstream propagation is not double-counted.
			remaining := fail
			for gi := range gates {
				flip := (cleanTrace[gi][wi] ^ badTrace[gi][wi]) & batch.mask[wi]
				if flip == 0 {
					continue
				}
				flipped[gi] += bits.OnesCount64(flip & fail)
				if hit := flip & remaining; hit != 0 {
					blamed[gi] += bits.OnesCount64(hit)
					remaining &^= hit
				}
			}
		}
		if failedTrial {
			rep.Failures++
		}
		lo, hi := wilson(rep.Failures, rep.Trials, yieldZ)
		if rep.Trials >= cfg.MinTrials && (hi-lo)/2 <= cfg.HalfWidth {
			rep.EarlyStopped = rep.Trials < cfg.MaxTrials
			break
		}
	}

	rep.FailureRate = float64(rep.Failures) / float64(rep.Trials)
	rep.Yield = 1 - rep.FailureRate
	rep.Lo, rep.Hi = wilson(rep.Failures, rep.Trials, yieldZ)
	for gi, g := range gates {
		if blamed[gi] == 0 && flipped[gi] == 0 {
			continue
		}
		rep.Critical = append(rep.Critical, GateImpact{Gate: g.Name, Blamed: blamed[gi], Flipped: flipped[gi]})
	}
	// The ranking must be a total order — blame, then flips, then the
	// (unique) gate name — so reports are byte-stable across runs at equal
	// blame and the selective re-synthesis loop picks the same gates every
	// time.
	sort.Slice(rep.Critical, func(i, j int) bool {
		a, b := rep.Critical[i], rep.Critical[j]
		if a.Blamed != b.Blamed {
			return a.Blamed > b.Blamed
		}
		if a.Flipped != b.Flipped {
			return a.Flipped > b.Flipped
		}
		return a.Gate < b.Gate
	})
	return rep, nil
}

func makeTrace(gates, words int) [][]uint64 {
	tr := make([][]uint64, gates)
	for i := range tr {
		tr[i] = make([]uint64, words)
	}
	return tr
}

// String renders a one-line summary for CLI output.
func (r *YieldReport) String() string {
	stop := "max-trials"
	if r.EarlyStopped {
		stop = "early-stop"
	}
	return fmt.Sprintf("%s: %d/%d trials failed (rate %.3f, 95%% CI [%.3f, %.3f], yield %.3f, %s, %d vectors)",
		r.Model, r.Failures, r.Trials, r.FailureRate, r.Lo, r.Hi, r.Yield, stop, r.Vectors)
}
