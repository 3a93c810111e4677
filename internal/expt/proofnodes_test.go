package expt

import (
	"testing"

	"tels/internal/bdd"
	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/mcnc"
	"tels/internal/opt"
)

// TestGoldenProofNodeTotal pins the BDD work of the golden gate's 196
// proofs: each benchmark × pipeline threshold network is compiled with
// its BLIF source into one manager, exactly as sim.ProveCore does, and
// the managers' node counts must sum to a fixed total. The manager
// numbers nodes in creation order, so a kernel change that creates,
// drops or reorders a node moves the total.
func TestGoldenProofNodeTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("whole corpus with i10 skipped in -short mode")
	}
	const want = 139145
	total, proofs := 0, 0
	for _, bm := range mcnc.All() {
		text, err := blif.WriteString(bm.Build())
		if err != nil {
			t.Fatal(err)
		}
		src, err := blif.ParseCoreString(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range flowPipelines {
			optimized, err := opt.Run(p.script, src)
			if err != nil {
				t.Fatal(err)
			}
			tn, _, err := core.Map(p.mapper, optimized, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s %s/%s: %v", bm.Name, p.script, p.mapper, err)
			}
			order := bdd.VarOrder(src)
			m := bdd.New(len(order), 0)
			wantRefs, err := bdd.CompileBoolean(m, src, order)
			if err != nil {
				t.Fatalf("%s %s/%s: %v", bm.Name, p.script, p.mapper, err)
			}
			got, err := bdd.CompileThreshold(m, tn, order)
			if err != nil {
				t.Fatalf("%s %s/%s: %v", bm.Name, p.script, p.mapper, err)
			}
			for i := range wantRefs {
				if wantRefs[i] != got[i] {
					t.Fatalf("%s %s/%s: output %d differs", bm.Name, p.script, p.mapper, i)
				}
			}
			total += m.Size()
			proofs++
		}
	}
	if proofs != 196 || total != want {
		t.Fatalf("%d proofs made %d nodes, want 196 proofs and %d nodes", proofs, total, want)
	}
}
