package sim

import (
	"errors"
	"fmt"

	"tels/internal/bdd"
	"tels/internal/core"
	"tels/internal/network"
)

// ProveResult reports how an equivalence check was discharged.
type ProveResult int

// Outcomes of Prove.
const (
	Proved    ProveResult = iota // BDD proof of equivalence
	Simulated                    // BDD exceeded its budget; sampled instead
)

func (r ProveResult) String() string {
	if r == Proved {
		return "proved"
	}
	return "simulated"
}

// Prove establishes functional equivalence of the Boolean network and the
// threshold network. It first attempts an exact proof by compiling both
// into one BDD manager (shared variable order from a structural DFS) and
// comparing the output functions for structural identity. Networks whose
// cones exceed the node budget fall back to Equivalent (exhaustive or
// sampled simulation). On inequivalence the error carries a concrete
// counterexample when the proof path found one.
func Prove(nw *network.Network, tn *core.Network, seed int64) (ProveResult, error) {
	err := proveBDD(nw, tn)
	if errors.Is(err, bdd.ErrNodeLimit) {
		return Simulated, Equivalent(nw, tn, seed)
	}
	return Proved, err
}

// sameOutputs checks that the threshold network has the Boolean network's
// outputs, by name and in order. Both checks compare outputs by position,
// so a renamed port must not pass.
func sameOutputs(nw *network.Network, tn *core.Network) error {
	if len(nw.Outputs) != len(tn.Outputs) {
		return fmt.Errorf("sim: output counts differ: %d vs %d",
			len(nw.Outputs), len(tn.Outputs))
	}
	for i, o := range nw.Outputs {
		if o.Name != tn.Outputs[i] {
			return fmt.Errorf("sim: output %d is %s in the threshold network, want %s",
				i, tn.Outputs[i], o.Name)
		}
	}
	return nil
}

func proveBDD(nw *network.Network, tn *core.Network) error {
	if err := sameOutputs(nw, tn); err != nil {
		return err
	}
	varLevel := bdd.VarOrder(nw)
	m := bdd.New(len(varLevel), 0)
	want, err := bdd.CompileBoolean(m, nw, varLevel)
	if err != nil {
		return err
	}
	got, err := bdd.CompileThreshold(m, tn, varLevel)
	if err != nil {
		return err
	}
	levelName := make([]string, len(varLevel))
	for name, level := range varLevel {
		levelName[level] = name
	}
	for i := range want {
		if want[i] == got[i] {
			continue
		}
		diff, err := m.Xor(want[i], got[i])
		if err != nil {
			return err
		}
		assign := m.AnySat(diff)
		cex := make(map[string]bool, len(assign))
		for level, v := range assign {
			cex[levelName[level]] = v
		}
		return fmt.Errorf("sim: output %s differs; counterexample %v",
			nw.Outputs[i].Name, cex)
	}
	return nil
}
