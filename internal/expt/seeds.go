package expt

import (
	"fmt"
	"sort"
	"strings"

	"tels/internal/core"
)

// SeedStats summarizes how the §V-C random tie-break affects result
// quality across synthesis seeds.
type SeedStats struct {
	Name   string
	Seeds  int
	MinG   int
	MedG   int
	MaxG   int
	MinLvl int
	MaxLvl int
}

// SeedSweep synthesizes the benchmark under n different tie-break seeds
// and reports the spread of gate counts and depths; every result is
// verified. A small spread means the heuristic is robust to its random
// component.
func SeedSweep(name string, n int, base core.Options) (SeedStats, error) {
	results, err := synthVariants(name, base, n, func(i int, o *core.Options) { o.Seed = int64(i) })
	if err != nil {
		return SeedStats{}, err
	}
	gates := make([]int, 0, n)
	stats := SeedStats{Name: name, Seeds: n, MinLvl: 1 << 30}
	for _, s := range results {
		gates = append(gates, s.Gates)
		stats.MinLvl = min(stats.MinLvl, s.Levels)
		stats.MaxLvl = max(stats.MaxLvl, s.Levels)
	}
	sort.Ints(gates)
	stats.MinG = gates[0]
	stats.MedG = gates[len(gates)/2]
	stats.MaxG = gates[len(gates)-1]
	return stats, nil
}

// RenderSeedSweep formats seed-robustness rows.
func RenderSeedSweep(rows []SeedStats) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Seed robustness — gate count spread over tie-break seeds")
	fmt.Fprintf(&b, "%-10s | %5s | %5s | %5s | %5s | %s\n",
		"Benchmark", "seeds", "min", "med", "max", "levels")
	fmt.Fprintln(&b, strings.Repeat("-", 58))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %5d | %5d | %5d | %5d | %d..%d\n",
			r.Name, r.Seeds, r.MinG, r.MedG, r.MaxG, r.MinLvl, r.MaxLvl)
	}
	return b.String()
}
