package netcore_test

import (
	"testing"

	"tels/internal/mcnc"
	"tels/internal/netcore"
	"tels/internal/opt"
)

// TestCloneMatchesPointerClone checks Clone against the pointer network's
// Clone on every benchmark as built and after each script: extraction
// leaves a non-topological creation order and dead nets behind, which
// Clone must normalize exactly as the pointer Clone does.
func TestCloneMatchesPointerClone(t *testing.T) {
	for _, bm := range mcnc.All() {
		src := netcore.FromNetwork(bm.Build())
		for _, script := range []string{"source", "algebraic", "boolean"} {
			nw := src
			if script != "source" {
				var err error
				if nw, err = opt.Run(script, src); err != nil {
					t.Fatal(err)
				}
			}
			if msg := netcore.SameNets(netcore.FromNetwork(nw.ToNetwork().Clone()), nw.Clone()); msg != "" {
				t.Fatalf("%s/%s: %s", bm.Name, script, msg)
			}
		}
	}
}
