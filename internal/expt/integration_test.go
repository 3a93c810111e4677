package expt

import (
	"testing"

	"tels/internal/core"
	"tels/internal/mcnc"
	"tels/internal/opt"
	"tels/internal/sim"
)

// TestWholeSuiteSynthesizes runs TELS over every recreated benchmark and
// proves (or, for cones beyond the BDD budget, simulates) equivalence —
// the repo-wide integration test mirroring the paper's "we ran all the
// benchmarks in the MCNC benchmark suite through TELS".
func TestWholeSuiteSynthesizes(t *testing.T) {
	for _, bm := range mcnc.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			if testing.Short() && bm.Name == "i10" {
				t.Skip("large benchmark skipped in -short mode")
			}
			src := bm.Build()
			alg := opt.Algebraic(src)
			tn, _, err := core.Synthesize(alg, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Prove(src, tn, 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d nodes -> %d LTGs, area %d (%s)",
				bm.Name, src.GateCount(), tn.GateCount(), tn.Area(), res)
			for _, g := range tn.Gates {
				if len(g.Inputs) > 3 {
					t.Errorf("fanin restriction violated: %s", g)
				}
			}
		})
	}
}

// TestWholeSuiteOneToOne does the same for the baseline mapper.
func TestWholeSuiteOneToOne(t *testing.T) {
	for _, bm := range mcnc.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			if testing.Short() && bm.Name == "i10" {
				t.Skip("large benchmark skipped in -short mode")
			}
			src := bm.Build()
			boolNet := opt.Boolean(src)
			tn, err := core.OneToOne(boolNet, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Prove(src, tn, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}
