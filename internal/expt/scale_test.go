package expt

import (
	"fmt"
	"math/rand"
	"testing"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/network"
	"tels/internal/opt"
	"tels/internal/sim"
)

// buildScaleNetwork builds a layered pseudo-random network of roughly the
// given node count over the given inputs — a stress shape distinct from
// the structured benchmarks.
func buildScaleNetwork(seed int64, inputs, nodes int) *network.Network {
	rng := rand.New(rand.NewSource(seed))
	nw := network.New(fmt.Sprintf("scale%d", seed))
	var signals []*network.Node
	for i := 0; i < inputs; i++ {
		signals = append(signals, nw.AddInput(fmt.Sprintf("pi%d", i)))
	}
	for g := 0; g < nodes; g++ {
		k := 2 + rng.Intn(3)
		// Bias fanins toward recent signals for a deep, layered shape.
		fanins := make([]*network.Node, 0, k)
		used := map[*network.Node]bool{}
		for len(fanins) < k {
			lo := 0
			if len(signals) > 24 {
				lo = len(signals) - 24
			}
			s := signals[lo+rng.Intn(len(signals)-lo)]
			if !used[s] {
				used[s] = true
				fanins = append(fanins, s)
			}
		}
		cover := logic.NewCover(k)
		for c := 0; c < 1+rng.Intn(3); c++ {
			cube := logic.NewCube(k)
			any := false
			for j := 0; j < k; j++ {
				switch rng.Intn(3) {
				case 0:
					cube[j] = logic.Pos
					any = true
				case 1:
					cube[j] = logic.Neg
					any = true
				}
			}
			if any {
				cover.AddCube(cube)
			}
		}
		if cover.IsZero() {
			cb := logic.NewCube(k)
			cb[0] = logic.Pos
			cover.AddCube(cb)
		}
		signals = append(signals, nw.AddNode(fmt.Sprintf("n%d", g), fanins, cover))
	}
	outs := 0
	for i := len(signals) - 1; i >= 0 && outs < 12; i-- {
		if signals[i].Kind == network.Internal {
			nw.MarkOutput(signals[i])
			outs++
		}
	}
	nw.RemoveDangling()
	return nw
}

// TestScaleFlow pushes a 400-node layered random network through both
// full pipelines and verifies the results — the stress companion to the
// structured-benchmark integration tests.
func TestScaleFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	src := buildScaleNetwork(7, 24, 400)
	if src.GateCount() < 200 {
		t.Fatalf("scale network too small after pruning: %d nodes", src.GateCount())
	}
	alg := opt.Algebraic(src)
	tels, stats, err := core.Synthesize(alg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Prove(src, tels, 1); err != nil {
		t.Fatal(err)
	}
	for _, g := range tels.Gates {
		if len(g.Inputs) > 3 {
			t.Fatalf("fanin restriction violated: %s", g)
		}
	}
	boolNet := opt.Boolean(src)
	oneToOne, err := core.OneToOne(boolNet, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Prove(src, oneToOne, 1); err != nil {
		t.Fatal(err)
	}
	t.Logf("scale: %d nodes -> TELS %d gates (%d ILP calls), one-to-one %d gates",
		src.GateCount(), tels.GateCount(), stats.ILPCalls, oneToOne.GateCount())
}
