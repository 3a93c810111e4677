package netcore

import (
	"fmt"
	"math/rand"
	"testing"

	"tels/internal/logic"
	"tels/internal/network"
)

// FuzzNetOps applies one random edit sequence to a netcore network and to
// a pointer network built alongside it, and after every step checks that
// the two agree: Validate passes, NetFanoutCount equals FanoutCounts,
// ToNetwork reproduces the pointer network (names, creation order, fanins,
// covers, outputs), Clone equals the pointer network's Clone net for net,
// and every output's NetLocalTT over the primary inputs equals
// LocalFunction.
//
// Each ops byte is one step: the low two bits pick AddNode (named by
// FreshName), SetFunction, MarkOutput or RemoveDangling; the high six bits
// pick the net it acts on (AddNode's first fanin, SetFunction's target,
// MarkOutput's net). Everything else is drawn from seed. The committed
// seeds under testdata/fuzz/FuzzNetOps run as regular tests; run
// `go test -fuzz FuzzNetOps ./internal/netcore` to explore.
func FuzzNetOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nInRaw uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		nc, pw := New("fz"), network.New("fz")
		nIn := 1 + int(nInRaw)%6
		for i := 0; i < nIn; i++ {
			name := fmt.Sprintf("x%d", i)
			nc.AddInput(name)
			pw.AddInput(name)
		}
		// One output from the start, so Validate has an output to find.
		first := nc.AddNode("n", nc.Inputs(), randomCover(rng, nIn))
		pw.AddNode("n", pw.Inputs, nc.NetCover(first))
		nc.MarkOutput(first)
		pw.MarkOutput(pw.Node("n"))
		checkNetOps(t, "start", nc, pw)

		bases := []string{"n", "t", "n_1"}
		for step, op := range ops {
			live := nc.Nets()
			subject := live[int(op>>2)%len(live)]
			var what string
			switch op & 3 {
			case 0:
				base := bases[rng.Intn(len(bases))]
				name := nc.FreshName(base)
				if p := pw.FreshName(base); p != name {
					t.Fatalf("step %d: FreshName(%s) netcore %q, network %q", step, base, name, p)
				}
				fanins := append([]Net{subject}, randomFanins(rng, live, rng.Intn(3))...)
				cv := randomCover(rng, len(fanins))
				nc.AddNode(name, fanins, cv)
				pw.AddNode(name, pointerNodes(nc, pw, fanins), cv)
				what = "AddNode " + name
			case 1:
				internal := nc.InternalNets()
				if len(internal) == 0 {
					continue
				}
				target := internal[int(op>>2)%len(internal)]
				fanins := randomFanins(rng, notInFanout(nc, target), rng.Intn(4))
				cv := randomCover(rng, len(fanins))
				nc.SetFunction(target, fanins, cv)
				pn := pw.Node(nc.NetName(target))
				pn.Fanins = pointerNodes(nc, pw, fanins)
				pn.Cover = cv
				what = "SetFunction " + nc.NetName(target)
			case 2:
				nc.MarkOutput(subject)
				pw.MarkOutput(pw.Node(nc.NetName(subject)))
				what = "MarkOutput " + nc.NetName(subject)
			case 3:
				if rc, rp := nc.RemoveDangling(), pw.RemoveDangling(); rc != rp {
					t.Fatalf("step %d: RemoveDangling removed netcore %d, network %d", step, rc, rp)
				}
				what = "RemoveDangling"
			}
			checkNetOps(t, fmt.Sprintf("step %d (%s)", step, what), nc, pw)
		}
	})
}

// checkNetOps asserts that the netcore network nc and the pointer network
// pw describe the same network.
func checkNetOps(t *testing.T, at string, nc *Network, pw *network.Network) {
	t.Helper()
	if err := nc.Validate(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if nc.GateCount() != pw.GateCount() {
		t.Fatalf("%s: GateCount netcore %d, network %d", at, nc.GateCount(), pw.GateCount())
	}
	counts := pw.FanoutCounts()
	for _, n := range nc.Nets() {
		if got, want := nc.NetFanoutCount(n), counts[pw.Node(nc.NetName(n))]; got != want {
			t.Fatalf("%s: NetFanoutCount(%s) = %d, FanoutCounts %d", at, nc.NetName(n), got, want)
		}
	}
	if msg := sameNetwork(pw, nc.ToNetwork()); msg != "" {
		t.Fatalf("%s: ToNetwork: %s", at, msg)
	}
	if msg := sameNets(FromNetwork(nc.ToNetwork().Clone()), nc.Clone()); msg != "" {
		t.Fatalf("%s: Clone: %s", at, msg)
	}
	for _, o := range nc.Outputs() {
		got, err := nc.NetLocalTT(o, nc.Inputs())
		if err != nil {
			t.Fatalf("%s: NetLocalTT(%s): %v", at, nc.NetName(o), err)
		}
		want, err := pw.LocalFunction(pw.Node(nc.NetName(o)), pw.Inputs)
		if err != nil {
			t.Fatalf("%s: LocalFunction(%s): %v", at, nc.NetName(o), err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: output %s: NetLocalTT %s, LocalFunction %s", at, nc.NetName(o), got, want)
		}
	}
}

// randomCover draws a cover of up to three cubes over k variables; empty
// covers and universal cubes are allowed.
func randomCover(rng *rand.Rand, k int) logic.Cover {
	cv := logic.NewCover(k)
	for c := rng.Intn(4); c > 0; c-- {
		cb := logic.NewCube(k)
		for v := range cb {
			cb[v] = logic.Phase(rng.Intn(3))
		}
		cv.AddCube(cb)
	}
	return cv
}

// randomFanins draws k nets from pool with replacement, so a fanin list
// may repeat a net.
func randomFanins(rng *rand.Rand, pool []Net, k int) []Net {
	if len(pool) == 0 {
		return nil
	}
	out := make([]Net, k)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// notInFanout returns the live nets that do not depend on target (target
// excluded), the fanins SetFunction may give it without a cycle.
func notInFanout(nc *Network, target Net) []Net {
	order, err := nc.TopoNets()
	if err != nil {
		panic(err)
	}
	tfo := map[Net]bool{target: true}
	var out []Net
	for _, n := range order {
		for _, f := range nc.NetFanins(n) {
			if tfo[f] {
				tfo[n] = true
				break
			}
		}
		if !tfo[n] {
			out = append(out, n)
		}
	}
	return out
}

// pointerNodes maps netcore nets to the same-named pointer-network nodes.
func pointerNodes(nc *Network, pw *network.Network, nets []Net) []*network.Node {
	out := make([]*network.Node, len(nets))
	for i, n := range nets {
		out[i] = pw.Node(nc.NetName(n))
	}
	return out
}
