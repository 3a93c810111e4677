// Package expt drives the paper's experiments: Table I (gate count,
// levels and area of one-to-one mapping vs TELS), Fig. 10 (gate count vs
// fanin restriction), Fig. 11 (failure rate vs weight-variation
// multiplier) and Fig. 12 (failure rate and area vs defect tolerance), all
// on the recreated MCNC benchmarks.
package expt

import (
	"fmt"
	"time"

	"tels/internal/core"
	"tels/internal/mcnc"
	"tels/internal/network"
	"tels/internal/opt"
	"tels/internal/sim"
)

// Flow bundles the two synthesis pipelines of §VI-A for one benchmark:
// script.boolean → one-to-one mapping, and script.algebraic → TELS.
type Flow struct {
	Name      string
	Source    *network.Network
	Algebraic *network.Network
	OneToOne  *core.Network
	TELS      *core.Network
	Stats     core.SynthStats
	// FactorTime (the algebraic script) and SynthTime (core.Synthesize)
	// split the TELS flow per §VI-A's timing claim.
	FactorTime time.Duration
	SynthTime  time.Duration
}

// RunFlow executes both pipelines on the named benchmark.
func RunFlow(name string, o core.Options) (*Flow, error) {
	bm, ok := mcnc.Get(name)
	if !ok {
		return nil, fmt.Errorf("expt: unknown benchmark %q", name)
	}
	src := bm.Build()

	// The §VI-A split times the TELS flow only: its factoring step is
	// the algebraic script, so the one-to-one baseline's Boolean script
	// runs outside the clock.
	boolNet := opt.Boolean(src)
	t0 := time.Now()
	algNet := opt.Algebraic(src)
	factorTime := time.Since(t0)

	oneToOne, err := core.OneToOne(boolNet, o)
	if err != nil {
		return nil, fmt.Errorf("expt: %s one-to-one: %w", name, err)
	}
	t1 := time.Now()
	tels, stats, err := core.Synthesize(algNet, o)
	if err != nil {
		return nil, fmt.Errorf("expt: %s TELS: %w", name, err)
	}
	synthTime := time.Since(t1)

	return &Flow{
		Name:       name,
		Source:     src,
		Algebraic:  algNet,
		OneToOne:   oneToOne,
		TELS:       tels,
		Stats:      stats,
		FactorTime: factorTime,
		SynthTime:  synthTime,
	}, nil
}

// Verify checks both threshold networks against the source Boolean
// network — by BDD proof where the cones fit, by simulation otherwise
// (strengthening the paper's "all the synthesized networks were simulated
// for functional correctness" into a formal check where possible).
func (f *Flow) Verify(seed int64) error {
	if _, err := sim.Prove(f.Source, f.OneToOne, seed); err != nil {
		return fmt.Errorf("one-to-one: %w", err)
	}
	if _, err := sim.Prove(f.Source, f.TELS, seed); err != nil {
		return fmt.Errorf("TELS: %w", err)
	}
	return nil
}

// TableIRow is one row of Table I.
type TableIRow struct {
	Name     string
	OneToOne core.Stats
	TELS     core.Stats
	Verified bool
}

// TableI runs the Table I experiment (ψ = 3 in the paper) over the given
// benchmarks, verifying every synthesized network by simulation. The
// benchmarks run in parallel on a bounded worker pool; every benchmark
// synthesizes with the base options (the tie-break seed never depends on
// goroutine scheduling) and the rows come back in input order, so the
// output is identical to a sequential run.
func TableI(names []string, o core.Options) ([]TableIRow, error) {
	rows := make([]TableIRow, len(names))
	err := forEachIndexed(len(names), 0, func(i int) error {
		flow, err := RunFlow(names[i], o)
		if err != nil {
			return err
		}
		if err := flow.Verify(1); err != nil {
			return fmt.Errorf("expt: %s failed simulation: %w", names[i], err)
		}
		rows[i] = TableIRow{
			Name:     names[i],
			OneToOne: flow.OneToOne.Stats(),
			TELS:     flow.TELS.Stats(),
			Verified: true,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// GateReduction returns the average gate-count reduction of TELS relative
// to one-to-one mapping across the rows, as a fraction in [−∞, 1].
func GateReduction(rows []TableIRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	total := 0.0
	for _, r := range rows {
		if r.OneToOne.Gates > 0 {
			total += 1 - float64(r.TELS.Gates)/float64(r.OneToOne.Gates)
		}
	}
	return total / float64(len(rows))
}

// Fig10Point is one fanin-restriction sample of Fig. 10.
type Fig10Point struct {
	Fanin         int
	OneToOneGates int
	TELSGates     int
}

// Fig10 sweeps the fanin restriction (3..8 in the paper) on one benchmark
// (comp in the paper) and reports both mappers' gate counts.
func Fig10(name string, fanins []int, base core.Options) ([]Fig10Point, error) {
	out := make([]Fig10Point, 0, len(fanins))
	for _, psi := range fanins {
		o := base
		o.Fanin = psi
		flow, err := RunFlow(name, o)
		if err != nil {
			return nil, err
		}
		if err := flow.Verify(1); err != nil {
			return nil, fmt.Errorf("expt: %s ψ=%d failed simulation: %w", name, psi, err)
		}
		out = append(out, Fig10Point{
			Fanin:         psi,
			OneToOneGates: flow.OneToOne.GateCount(),
			TELSGates:     flow.TELS.GateCount(),
		})
	}
	return out, nil
}

// DefectSet is the benchmark subset used for the Monte-Carlo defect
// experiments. The paper runs the whole suite; this subset keeps the
// experiment fast while spanning the same circuit families.
func DefectSet() []string {
	return []string{
		"cm152a", "cm85a", "cmb", "pm1", "tcon",
		"mux4", "comp4", "adder4", "parity8", "rd53",
		"maj5", "con1", "z4ml", "dec4", "misex1",
	}
}

// Fig11Curve is one δon curve of Fig. 11: failure rate per variation
// multiplier.
type Fig11Curve struct {
	DeltaOn int
	V       []float64
	Rate    []float64
}

// Fig11 measures the failure rate as the variation multiplier grows, one
// curve per δon value (0..3 in the paper, δoff fixed at 1).
func Fig11(names []string, vs []float64, deltaOns []int, trials int, seed int64) ([]Fig11Curve, error) {
	curves := make([]Fig11Curve, 0, len(deltaOns))
	for _, don := range deltaOns {
		pairs, err := synthPairs(names, don, seed)
		if err != nil {
			return nil, err
		}
		curve := Fig11Curve{DeltaOn: don}
		for _, v := range vs {
			rate, err := sim.FailureRate(pairs, v, sim.FailureRateConfig{
				Trials: trials,
				Seed:   seed + int64(don)*1000 + int64(v*100),
			})
			if err != nil {
				return nil, err
			}
			curve.V = append(curve.V, v)
			curve.Rate = append(curve.Rate, rate)
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

// Fig12Point is one δon sample of Fig. 12 at fixed v.
type Fig12Point struct {
	DeltaOn      int
	FailureRate  float64
	TotalArea    int
	RelativeArea float64 // area normalized to the δon=0 area
}

// Fig12 measures failure rate and total network area as δon grows, at a
// fixed variation multiplier (v = 0.8 in the paper).
func Fig12(names []string, v float64, deltaOns []int, trials int, seed int64) ([]Fig12Point, error) {
	out := make([]Fig12Point, 0, len(deltaOns))
	baseArea := 0
	for _, don := range deltaOns {
		pairs, err := synthPairs(names, don, seed)
		if err != nil {
			return nil, err
		}
		rate, err := sim.FailureRate(pairs, v, sim.FailureRateConfig{
			Trials: trials,
			Seed:   seed + int64(don)*1000,
		})
		if err != nil {
			return nil, err
		}
		area := 0
		for _, p := range pairs {
			area += p.Threshold.Area()
		}
		if don == deltaOns[0] {
			baseArea = area
		}
		rel := 1.0
		if baseArea > 0 {
			rel = float64(area) / float64(baseArea)
		}
		out = append(out, Fig12Point{DeltaOn: don, FailureRate: rate, TotalArea: area, RelativeArea: rel})
	}
	return out, nil
}

// synthPairs synthesizes the benchmarks with the given δon for the defect
// experiments. The benchmarks synthesize in parallel; each derives its
// options purely from the base seed and δon, and the pair order follows
// the input names, so the Monte-Carlo streams that consume the pairs see
// exactly the sequence a sequential run would produce.
func synthPairs(names []string, deltaOn int, seed int64) ([]sim.Pair, error) {
	pairs := make([]sim.Pair, len(names))
	err := forEachIndexed(len(names), 0, func(i int) error {
		name := names[i]
		bm, ok := mcnc.Get(name)
		if !ok {
			return fmt.Errorf("expt: unknown benchmark %q", name)
		}
		src := bm.Build()
		alg := opt.Algebraic(src)
		tn, _, err := core.Synthesize(alg, core.Options{
			Fanin: 3, DeltaOn: deltaOn, DeltaOff: 1, Seed: seed,
		})
		if err != nil {
			return fmt.Errorf("expt: %s (δon=%d): %w", name, deltaOn, err)
		}
		pairs[i] = sim.Pair{Name: name, Bool: src, Threshold: tn}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// TimingRow reports the §VI-A timing split for one benchmark.
type TimingRow struct {
	Name          string
	Factor        time.Duration
	Synth         time.Duration
	SynthFraction float64
}

// Timing measures how the flow time splits between network factoring and
// threshold synthesis (the paper reports 42% in synthesis on average).
func Timing(names []string, o core.Options) ([]TimingRow, error) {
	rows := make([]TimingRow, 0, len(names))
	for _, name := range names {
		flow, err := RunFlow(name, o)
		if err != nil {
			return nil, err
		}
		total := flow.FactorTime + flow.SynthTime
		frac := 0.0
		if total > 0 {
			frac = float64(flow.SynthTime) / float64(total)
		}
		rows = append(rows, TimingRow{
			Name:          name,
			Factor:        flow.FactorTime,
			Synth:         flow.SynthTime,
			SynthFraction: frac,
		})
	}
	return rows, nil
}
