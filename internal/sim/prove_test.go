package sim

import (
	"strings"
	"testing"

	"tels/internal/core"
	"tels/internal/mcnc"
	"tels/internal/netcore"
	"tels/internal/opt"
)

func TestProveSmall(t *testing.T) {
	p := buildPair(t, 0)
	res, err := ProveCore(p.Bool, p.Threshold, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res != Proved {
		t.Fatalf("result = %v, want proved", res)
	}
}

func TestProveFindsCounterexample(t *testing.T) {
	p := buildPair(t, 0)
	p.Threshold.Gates[0].T += 100
	_, err := ProveCore(p.Bool, p.Threshold, 1)
	if err == nil {
		t.Fatal("corrupted network proved equivalent")
	}
	if !strings.Contains(err.Error(), "counterexample") {
		t.Fatalf("error lacks counterexample: %v", err)
	}
}

// Prove must handle the wide benchmarks that Equivalent can only sample:
// the 32-input comparator gets a complete proof because the DFS variable
// order interleaves the a/b bits.
func TestProveWideComparator(t *testing.T) {
	src := mcnc.Build("comp")
	tn, _, err := core.Synthesize(opt.Algebraic(src), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Prove(src, tn, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res != Proved {
		t.Fatalf("comp fell back to %v; expected a full BDD proof", res)
	}
}

func TestProveBenchmarks(t *testing.T) {
	for _, name := range []string{"cm152a", "cordic", "term1", "parity16", "alu2s"} {
		src := mcnc.Build(name)
		tn, _, err := core.Synthesize(opt.Algebraic(src), core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Prove(src, tn, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestProveOneToOne(t *testing.T) {
	src := mcnc.Build("cm85a")
	tn, err := core.OneToOne(opt.Boolean(src), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Prove(src, tn, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res != Proved {
		t.Fatalf("result = %v", res)
	}
}

// TestProveFallsBackToSimulation drives ProveCore's fallback with a
// budget of 10 BDD nodes, which no corpus proof fits: a correct network
// must come back Simulated with no error, and a broken one with an error.
func TestProveFallsBackToSimulation(t *testing.T) {
	src := netcore.FromNetwork(mcnc.Build("cm152a"))
	tn, _, err := core.Synthesize(opt.Algebraic(mcnc.Build("cm152a")), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := proveCore(src, tn, 1, 10)
	if err != nil || res != Simulated {
		t.Fatalf("correct network: result %v, err %v; want simulated, nil", res, err)
	}
	tn.Gates[0].T += 100
	res, err = proveCore(src, tn, 1, 10)
	if err == nil || res != Simulated {
		t.Fatalf("broken network: result %v, err %v; want simulated with an error", res, err)
	}
}

func TestProveResultString(t *testing.T) {
	if Proved.String() != "proved" || Simulated.String() != "simulated" {
		t.Fatal("ProveResult strings wrong")
	}
}

// TestProveChecksOutputNames pins that both equivalence checks match the
// threshold network's outputs to the Boolean network's by name: a port
// renamed to another gate computing the same function must not pass.
func TestProveChecksOutputNames(t *testing.T) {
	for _, tc := range []struct {
		name    string
		edit    func(tn *core.Network)
		wantErr string
	}{
		{"same", func(*core.Network) {}, ""},
		{"renamed", func(tn *core.Network) {
			if err := tn.AddGate(&core.Gate{Name: "eq_copy", Inputs: []string{"eq"}, Weights: []int{1}, T: 1}); err != nil {
				t.Fatal(err)
			}
			tn.Outputs[0] = "eq_copy"
		}, "output 0 is eq_copy"},
		{"dropped", func(tn *core.Network) { tn.Outputs = tn.Outputs[:1] }, "output counts differ"},
	} {
		p := buildPair(t, 0)
		tc.edit(p.Threshold)
		_, proveErr := ProveCore(p.Bool, p.Threshold, 1)
		for check, err := range map[string]error{"Prove": proveErr, "Equivalent": Equivalent(p.Bool, p.Threshold, 1)} {
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("%s: %s: %v", tc.name, check, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("%s: %s = %v, want an error containing %q", tc.name, check, err, tc.wantErr)
			}
		}
	}
}
