package expt

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"tels/internal/core"
	"tels/internal/truth"
)

// This file benchmarks the threshold check on real synthesis workloads:
// the node functions of the algebraically factored MCNC benchmarks,
// widest first, checked under the same Fig. 6 cube system the synthesis
// core builds. Two configurations are timed per benchmark:
//
//	cold      a fresh Checker per check: every check pays the digest,
//	          cover construction and a branch-and-bound solve.
//	deployed  the checker as synthesis runs it: one Checker per timed
//	          pass, whose proven-UNSAT results answer repeated
//	          rejections, so the speedup is earned within one pass over
//	          the workload, exactly as one synthesis run would.
//
// Instances are deliberately NOT deduplicated: array-style benchmarks
// (comparator stages, adder slices) genuinely instantiate the same wide
// node function many times, and re-deciding those repeats is precisely
// the per-node hot path the proven-UNSAT results remove.

// threshConfigs are the margin/cap points each instance is checked under:
// the flow default (δon=0, δoff=1), a hardened margin (δon=1), and an
// RTD-style weight cap.
var threshConfigs = []struct {
	DeltaOn, DeltaOff, MaxW int
}{
	{0, 1, 0},
	{1, 1, 0},
	{0, 1, 3},
}

// ThreshInstance is one harvested node function.
type ThreshInstance struct {
	Bench string
	Node  string
	TT    *truth.Table
}

// ThreshRow is one benchmark's per-configuration timing aggregate.
type ThreshRow struct {
	Benchmark  string  `json:"benchmark"`
	Nodes      int     `json:"nodes"`
	Distinct   int     `json:"distinct"`
	Checks     int     `json:"checks"`
	MaxVars    int     `json:"max_vars"`
	SatChecks  int     `json:"sat_checks"`
	ColdMS     float64 `json:"cold_ms"`
	DeployedMS float64 `json:"deployed_ms"`
	Speedup    float64 `json:"deployed_speedup_vs_cold"`
}

// HarvestThreshNodes extracts the checkable node functions of a
// benchmark's algebraically factored network: unate, full-support,
// non-constant functions of minVars..maxVars variables (the synthesizer
// never checks above the fanin restriction, and exact cover generation is
// exponential in the width), widest first, at most limit of them
// (0 = no limit). Repeated functions are kept — see the file comment.
func HarvestThreshNodes(name string, minVars, maxVars, limit int) ([]ThreshInstance, error) {
	_, nw, err := scripted(name, "algebraic")
	if err != nil {
		return nil, err
	}
	var out []ThreshInstance
	for _, n := range nw.InternalNets() {
		fanins := nw.NetFanins(n)
		if len(fanins) < minVars || len(fanins) > maxVars {
			continue
		}
		tt, err := nw.NetLocalTT(n, fanins)
		if err != nil {
			return nil, fmt.Errorf("expt: %s/%s: %w", name, nw.NetName(n), err)
		}
		if konst, _ := tt.IsConst(); konst {
			continue
		}
		if len(tt.Support()) != tt.N() || !tt.IsUnate() {
			continue
		}
		out = append(out, ThreshInstance{Bench: name, Node: nw.NetName(n), TT: tt})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TT.N() > out[j].TT.N() })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// threshPass times iters full checking passes over the instances and
// returns the mean per-pass wall clock. Every pass builds a new checker
// (cold: every check does), so each iteration is one cold synthesis-run
// equivalent — repetition only stretches the timed region
// (sub-millisecond benchmarks would otherwise drown in scheduler noise),
// it never lets certificates leak across passes.
func threshPass(cold bool, insts []ThreshInstance, iters int) time.Duration {
	if iters < 1 {
		iters = 1
	}
	t0 := time.Now()
	for it := 0; it < iters; it++ {
		var chk core.Checker
		for _, inst := range insts {
			for _, cfg := range threshConfigs {
				if cold {
					chk = core.Checker{}
				}
				chk.Check(inst.TT, cfg.DeltaOn, cfg.DeltaOff, cfg.MaxW)
			}
		}
	}
	return time.Since(t0) / time.Duration(iters)
}

// minTimedRegion is the floor a single timing sample is stretched to by
// pass repetition.
const minTimedRegion = 50 * time.Millisecond

// ThreshBench decides every harvested instance of the named benchmarks
// cold and deployed and reports per-benchmark wall-clock totals: per
// configuration, the time of a full pass over the benchmark's instances,
// minimised over reps passes to shed scheduler noise.
func ThreshBench(names []string, minVars, maxVars, limit, reps int) ([]ThreshRow, error) {
	if reps < 1 {
		reps = 1
	}
	rows := make([]ThreshRow, 0, len(names))
	for _, name := range names {
		insts, err := HarvestThreshNodes(name, minVars, maxVars, limit)
		if err != nil {
			return nil, err
		}
		if len(insts) == 0 {
			continue
		}
		row := ThreshRow{Benchmark: name, Nodes: len(insts)}
		distinct := make(map[string]bool)
		for _, inst := range insts {
			if n := inst.TT.N(); n > row.MaxVars {
				row.MaxVars = n
			}
			distinct[inst.TT.String()] = true
			for _, cfg := range threshConfigs {
				row.Checks++
				var chk core.Checker
				if _, ok := chk.Check(inst.TT, cfg.DeltaOn, cfg.DeltaOff, cfg.MaxW); ok {
					row.SatChecks++
				}
			}
		}
		row.Distinct = len(distinct)

		// One calibration pass sizes the repetition count so every sample
		// spans at least minTimedRegion; both configurations use the same
		// count so they share the measurement discipline.
		iters := 1
		if calib := threshPass(true, insts, 1); calib < minTimedRegion {
			iters = int(minTimedRegion/calib) + 1
			if iters > 64 {
				iters = 64
			}
		}
		var bestCold, bestDeployed time.Duration
		for rep := 0; rep < reps; rep++ {
			if d := threshPass(true, insts, iters); rep == 0 || d < bestCold {
				bestCold = d
			}
			if d := threshPass(false, insts, iters); rep == 0 || d < bestDeployed {
				bestDeployed = d
			}
		}
		row.ColdMS = float64(bestCold.Microseconds()) / 1000
		row.DeployedMS = float64(bestDeployed.Microseconds()) / 1000
		if row.DeployedMS > 0 {
			row.Speedup = row.ColdMS / row.DeployedMS
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderThreshBench formats the threshold-check timing table.
func RenderThreshBench(rows []ThreshRow) string {
	var b strings.Builder
	b.WriteString("threshold check — widest MCNC node functions\n")
	b.WriteString("(per benchmark: one full checking pass, best of reps; cold pays every\n")
	b.WriteString(" check, deployed keeps the UNSAT-certificate cache within the pass)\n\n")
	fmt.Fprintf(&b, "%-10s | %5s %4s %6s %4s %4s | %9s %11s | %7s\n",
		"bench", "nodes", "uniq", "checks", "maxN", "sat", "cold ms", "deployed ms", "speedup")
	fmt.Fprintln(&b, "-------------------------------------------------------------------------------")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %5d %4d %6d %4d %4d | %9.2f %11.2f | %6.2fx\n",
			r.Benchmark, r.Nodes, r.Distinct, r.Checks, r.MaxVars, r.SatChecks,
			r.ColdMS, r.DeployedMS, r.Speedup)
	}
	return b.String()
}

// WriteThreshBenchCSV emits the table in plottable form.
func WriteThreshBenchCSV(w io.Writer, rows []ThreshRow) error {
	if _, err := fmt.Fprintln(w, "benchmark,nodes,distinct,checks,max_vars,sat_checks,cold_ms,deployed_ms,deployed_speedup_vs_cold"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%g,%g,%g\n",
			r.Benchmark, r.Nodes, r.Distinct, r.Checks, r.MaxVars, r.SatChecks,
			r.ColdMS, r.DeployedMS, r.Speedup); err != nil {
			return err
		}
	}
	return nil
}
