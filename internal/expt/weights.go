package expt

import (
	"fmt"
	"strings"

	"tels/internal/core"
)

// WeightPoint is one sample of the weight-bound sweep: how the gate count
// and area react as the permitted RTD weight ratio shrinks.
type WeightPoint struct {
	MaxWeight int // 0 = unbounded
	Gates     int
	Levels    int
	Area      int
}

// WeightSweep synthesizes the benchmark under progressively tighter
// weight bounds (RTD peak-current ratios), verifying each result. Bounds
// of 0 mean unbounded.
func WeightSweep(name string, bounds []int, base core.Options) ([]WeightPoint, error) {
	results, err := synthVariants(name, base, len(bounds), func(i int, o *core.Options) { o.MaxWeight = bounds[i] })
	if err != nil {
		return nil, err
	}
	out := make([]WeightPoint, len(bounds))
	for i, s := range results {
		out[i] = WeightPoint{MaxWeight: bounds[i], Gates: s.Gates, Levels: s.Levels, Area: s.Area}
	}
	return out, nil
}

// RenderWeightSweep formats the weight-bound sweep.
func RenderWeightSweep(name string, points []WeightPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Weight bound sweep — %s (RTD peak-current ratio limit)\n", name)
	fmt.Fprintf(&b, "%9s | %6s | %7s | %6s\n", "max |w|", "gates", "levels", "area")
	fmt.Fprintln(&b, strings.Repeat("-", 38))
	for _, p := range points {
		label := fmt.Sprintf("%d", p.MaxWeight)
		if p.MaxWeight == 0 {
			label = "∞"
		}
		fmt.Fprintf(&b, "%9s | %6d | %7d | %6d\n", label, p.Gates, p.Levels, p.Area)
	}
	return b.String()
}
