package expt

import (
	"fmt"
	"strings"

	"tels/internal/core"
)

// HeuristicRow compares the splitting strategies (§VII conjectures better
// partitioning heuristics may exist) on one benchmark.
type HeuristicRow struct {
	Name      string
	Frequency core.Stats // the paper's heuristic
	Balanced  core.Stats
	Random    core.Stats
}

// Heuristics synthesizes each benchmark under every splitting strategy,
// verifying all results.
func Heuristics(names []string, base core.Options) ([]HeuristicRow, error) {
	strategies := []core.SplitStrategy{core.SplitFrequency, core.SplitBalanced, core.SplitRandom}
	rows := make([]HeuristicRow, 0, len(names))
	for _, name := range names {
		s, err := synthVariants(name, base, len(strategies), func(i int, o *core.Options) { o.Split = strategies[i] })
		if err != nil {
			return nil, err
		}
		rows = append(rows, HeuristicRow{Name: name, Frequency: s[0], Balanced: s[1], Random: s[2]})
	}
	return rows, nil
}

// RenderHeuristics formats the splitting-strategy comparison.
func RenderHeuristics(rows []HeuristicRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Splitting heuristics — TELS gates (levels) per strategy")
	fmt.Fprintf(&b, "%-10s | %16s | %16s | %16s\n",
		"Benchmark", "frequency (§V-C)", "balanced", "random")
	fmt.Fprintln(&b, strings.Repeat("-", 68))
	cell := func(s core.Stats) string {
		return fmt.Sprintf("%9d (%2d)", s.Gates, s.Levels)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %16s | %16s | %16s\n",
			r.Name, cell(r.Frequency), cell(r.Balanced), cell(r.Random))
	}
	return b.String()
}
