package fsim

import (
	"testing"

	"tels/internal/core"
)

// TestFaultSweepAND pins detectability counts on a 2-input AND: stuck-at-0
// is observable only on vector 11, stuck-at-1 on the other three.
func TestFaultSweepAND(t *testing.T) {
	_, tn := andPair(t)
	rep, err := FaultSweep(tn, exhaustive(tn.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != 2 || rep.DetectedFaults != 2 || rep.Coverage != 1 {
		t.Fatalf("bad summary: %+v", rep)
	}
	// Sites are sorted hardest-first: stuck-at-0 (1 vector) before
	// stuck-at-1 (3 vectors).
	if rep.Sites[0].Stuck != 0 || rep.Sites[0].Detected != 1 {
		t.Fatalf("stuck-at-0 site: %+v", rep.Sites[0])
	}
	if rep.Sites[1].Stuck != 1 || rep.Sites[1].Detected != 3 {
		t.Fatalf("stuck-at-1 site: %+v", rep.Sites[1])
	}
}

// TestFaultSweepRedundant: a gate with no path to any output is
// undetectable, and the coverage reflects it.
func TestFaultSweepRedundant(t *testing.T) {
	tn := core.NewNetwork("red")
	tn.AddInput("a")
	tn.AddInput("b")
	if err := tn.AddGate(&core.Gate{Name: "dead", Inputs: []string{"a", "b"}, Weights: []int{1, 1}, T: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tn.AddGate(&core.Gate{Name: "f", Inputs: []string{"a", "b"}, Weights: []int{1, 1}, T: 1}); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")
	rep, err := FaultSweep(tn, exhaustive(tn.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != 4 || rep.DetectedFaults != 2 || rep.Coverage != 0.5 {
		t.Fatalf("bad summary: %+v", rep)
	}
	for _, s := range rep.Sites[:2] {
		if s.Gate != "dead" || s.Detected != 0 {
			t.Fatalf("expected dead-gate faults first: %+v", rep.Sites)
		}
	}
}
