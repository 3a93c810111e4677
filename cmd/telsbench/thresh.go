package main

import (
	"fmt"
	"io"

	"tels/internal/expt"
)

// threshBench times the threshold check cold and as deployed on the
// widest node functions of the algebraically factored MCNC benchmarks.
func threshBench(quick, jsonOut bool, emit emitFn) error {
	names := []string{
		"maj5", "vote5", "mux16", "priority8", "t481x", "cm85a", "cmb",
		"term1", "comp4", "comp8", "comp", "i10",
	}
	minVars, maxVars, limit, reps := 6, 10, 64, 9
	if quick {
		names = []string{"cm85a", "term1", "comp", "i10"}
		limit, reps = 16, 2
	}
	rows, err := expt.ThreshBench(names, minVars, maxVars, limit, reps)
	if err != nil {
		return err
	}
	if jsonOut {
		if err := writeJSON(map[string]any{
			"experiment": "thresh", "min_vars": minVars, "max_vars": maxVars,
			"nodes_per_bench": limit, "reps": reps, "rows": rows,
		}); err != nil {
			return err
		}
	} else {
		fmt.Print(expt.RenderThreshBench(rows))
	}
	return emit("thresh.csv", func(w io.Writer) error { return expt.WriteThreshBenchCSV(w, rows) })
}
