package expt

import (
	"fmt"
	"strings"

	"tels/internal/core"
)

// AblationRow measures how much of TELS's quality comes from each design
// choice DESIGN.md calls out: Fig. 4 collapsing and the Theorem-2 merge.
type AblationRow struct {
	Name       string
	Full       core.Stats // the complete algorithm
	NoCollapse core.Stats // without node collapsing
	NoTheorem2 core.Stats // without Theorem-2 merges
	Neither    core.Stats // both disabled
}

// Ablation synthesizes each benchmark four ways, proving every variant
// against its source.
func Ablation(names []string, base core.Options) ([]AblationRow, error) {
	rows := make([]AblationRow, 0, len(names))
	for _, name := range names {
		// Variant bit 0 disables collapsing, bit 1 the Theorem-2 merge.
		s, err := synthVariants(name, base, 4, func(i int, o *core.Options) {
			o.NoCollapse = o.NoCollapse || i&1 != 0
			o.NoTheorem2 = o.NoTheorem2 || i&2 != 0
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Name: name, Full: s[0], NoCollapse: s[1], NoTheorem2: s[2], Neither: s[3]})
	}
	return rows, nil
}

// RenderAblation formats the ablation study.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation — TELS gate count with design choices disabled")
	fmt.Fprintf(&b, "%-10s | %6s | %11s | %11s | %8s\n",
		"Benchmark", "full", "no-collapse", "no-theorem2", "neither")
	fmt.Fprintln(&b, strings.Repeat("-", 60))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %6d | %11d | %11d | %8d\n",
			r.Name, r.Full.Gates, r.NoCollapse.Gates, r.NoTheorem2.Gates, r.Neither.Gates)
	}
	return b.String()
}
