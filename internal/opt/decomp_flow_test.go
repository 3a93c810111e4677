package opt_test

import (
	"testing"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/opt"
	"tels/internal/sim"
)

// TestTechDecompNegatedOutput maps f = ab, g = f, h = ¬g one-to-one. An
// output that is a single negative literal is one inverter named by the
// output, not a shared inverter plus an output buffer: under the raw
// script, outputs g and h take f, the buffer g and the inverter h, and h
// alone takes f and h. The algebraic and boolean scripts rewrite h as
// ¬a + ¬b, two inverters and an OR beside the AND g. sim.ProveCore proves
// every result.
func TestTechDecompNegatedOutput(t *testing.T) {
	for _, tc := range []struct {
		outputs string
		gates   map[string]int // per script
	}{
		{"g h", map[string]int{"none": 3, "algebraic": 4, "boolean": 4}},
		{"h", map[string]int{"none": 2, "algebraic": 3, "boolean": 3}},
	} {
		text := ".model neg\n.inputs a b\n.outputs " + tc.outputs + "\n" +
			".names a b f\n11 1\n.names f g\n1 1\n.names g h\n0 1\n.end\n"
		src, err := blif.ParseCoreString(text)
		if err != nil {
			t.Fatal(err)
		}
		for script, want := range tc.gates {
			optimized, err := opt.Run(script, src)
			if err != nil {
				t.Fatal(err)
			}
			tn, _, err := core.Map("one2one", optimized, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got := len(tn.Gates); got != want {
				t.Errorf("outputs %s, %s: %d gates, want %d:\n%s", tc.outputs, script, got, want, tn)
			}
			if _, err := sim.ProveCore(src, tn, 1); err != nil {
				t.Errorf("outputs %s, %s: %v", tc.outputs, script, err)
			}
		}
	}
}
