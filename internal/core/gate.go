// Package core implements TELS, the threshold logic synthesizer of
// Zhang, Gupta, Zhong and Jha (DATE 2004): multi-level, multi-output
// synthesis of linear-threshold-gate networks from Boolean networks, with
// fanin restriction and defect tolerances, plus the one-to-one mapping
// baseline the paper compares against.
package core

import (
	"fmt"
	"sort"
	"strings"
)

// Gate is a linear threshold gate (LTG): it outputs 1 exactly when the
// weighted sum of its inputs reaches the threshold, Σ wᵢxᵢ ≥ T.
// The defect tolerances used during synthesis guarantee the stronger
// separation Σ ≥ T+δon on the ON-set and Σ ≤ T−δoff on the OFF-set, so
// the gate still evaluates correctly when weights drift.
type Gate struct {
	Name    string
	Inputs  []string
	Weights []int
	T       int
}

// ConstGate is the zero-input gate for a constant: T = −δon fires on
// every vector (Σ = 0 ≥ T with margin δon), while T = δoff never fires
// (Σ = 0 ≤ T − δoff).
func ConstGate(name string, value bool, don, doff int) *Gate {
	if value {
		return &Gate{Name: name, T: -don}
	}
	return &Gate{Name: name, T: doff}
}

// Eval computes the gate output for the given input values.
func (g *Gate) Eval(in []bool) bool {
	sum := 0
	for i, v := range in {
		if v {
			sum += g.Weights[i]
		}
	}
	return sum >= g.T
}

// EvalPerturbed computes the gate output with per-input weight
// disturbances added (the w' = w + v·U(−0.5,0.5) model of §VI-C).
func (g *Gate) EvalPerturbed(in []bool, noise []float64) bool {
	sum := 0.0
	for i, v := range in {
		if v {
			sum += float64(g.Weights[i]) + noise[i]
		}
	}
	return sum >= float64(g.T)
}

// Area returns the gate's RTD area per the paper's Eq. 14 with unit area
// A_u = 1: the sum of absolute weights plus the absolute threshold.
func (g *Gate) Area() int {
	a := abs(g.T)
	for _, w := range g.Weights {
		a += abs(w)
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// String renders the gate in the .tln textual form.
func (g *Gate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s = [T=%d]", g.Name, g.T)
	for i, in := range g.Inputs {
		fmt.Fprintf(&b, " %+d*%s", g.Weights[i], in)
	}
	return b.String()
}

// Network is a combinational threshold network: a DAG of LTGs over named
// primary inputs.
type Network struct {
	Name    string
	Inputs  []string
	Outputs []string
	Gates   []*Gate

	byName map[string]*Gate
}

// NewNetwork returns an empty threshold network.
func NewNetwork(name string) *Network {
	return &Network{Name: name, byName: make(map[string]*Gate)}
}

// AddInput declares a primary input name.
func (tn *Network) AddInput(name string) {
	tn.Inputs = append(tn.Inputs, name)
}

// AddGate appends a gate. Names must be unique and distinct from inputs.
func (tn *Network) AddGate(g *Gate) error {
	if len(g.Inputs) != len(g.Weights) {
		return fmt.Errorf("core: gate %s has %d inputs but %d weights",
			g.Name, len(g.Inputs), len(g.Weights))
	}
	if _, dup := tn.byName[g.Name]; dup {
		return fmt.Errorf("core: duplicate gate name %s", g.Name)
	}
	for _, in := range tn.Inputs {
		if in == g.Name {
			return fmt.Errorf("core: gate %s shadows a primary input", g.Name)
		}
	}
	tn.Gates = append(tn.Gates, g)
	tn.byName[g.Name] = g
	return nil
}

// Gate returns the gate driving the named signal, or nil.
func (tn *Network) Gate(name string) *Gate { return tn.byName[name] }

// MarkOutput declares a signal (gate or input) a primary output.
func (tn *Network) MarkOutput(name string) {
	for _, o := range tn.Outputs {
		if o == name {
			return
		}
	}
	tn.Outputs = append(tn.Outputs, name)
}

// GateCount returns the number of threshold gates.
func (tn *Network) GateCount() int { return len(tn.Gates) }

// Area returns the total network area per Eq. 14.
func (tn *Network) Area() int {
	a := 0
	for _, g := range tn.Gates {
		a += g.Area()
	}
	return a
}

// MaxFanin returns the largest gate fanin.
func (tn *Network) MaxFanin() int {
	m := 0
	for _, g := range tn.Gates {
		if len(g.Inputs) > m {
			m = len(g.Inputs)
		}
	}
	return m
}

// TopoGates returns the gates in topological order (drivers first), or an
// error when a gate input is neither a primary input nor a gate output, or
// the network is cyclic.
func (tn *Network) TopoGates() ([]*Gate, error) {
	inputSet := make(map[string]bool, len(tn.Inputs))
	for _, in := range tn.Inputs {
		inputSet[in] = true
	}
	const (
		unseen = 0
		active = 1
		done   = 2
	)
	state := make(map[string]int, len(tn.Gates))
	out := make([]*Gate, 0, len(tn.Gates))
	var visit func(name string) error
	visit = func(name string) error {
		if inputSet[name] {
			return nil
		}
		g := tn.byName[name]
		if g == nil {
			return fmt.Errorf("core: signal %s is not an input or gate", name)
		}
		switch state[name] {
		case done:
			return nil
		case active:
			return fmt.Errorf("core: cycle through gate %s", name)
		}
		state[name] = active
		for _, in := range g.Inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		state[name] = done
		out = append(out, g)
		return nil
	}
	for _, g := range tn.Gates {
		if err := visit(g.Name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Validate checks structural sanity including that every output is driven.
func (tn *Network) Validate() error {
	if _, err := tn.TopoGates(); err != nil {
		return err
	}
	inputSet := make(map[string]bool, len(tn.Inputs))
	for _, in := range tn.Inputs {
		inputSet[in] = true
	}
	for _, o := range tn.Outputs {
		if !inputSet[o] && tn.byName[o] == nil {
			return fmt.Errorf("core: output %s is not driven", o)
		}
	}
	return nil
}

// Eval computes every signal value under the given primary-input
// assignment and returns the map of all signal values.
func (tn *Network) Eval(inputs map[string]bool) (map[string]bool, error) {
	order, err := tn.TopoGates()
	if err != nil {
		return nil, err
	}
	values := make(map[string]bool, len(order)+len(tn.Inputs))
	for _, in := range tn.Inputs {
		v, ok := inputs[in]
		if !ok {
			return nil, fmt.Errorf("core: no value for input %s", in)
		}
		values[in] = v
	}
	buf := make([]bool, 0, 16)
	for _, g := range order {
		buf = buf[:0]
		for _, in := range g.Inputs {
			buf = append(buf, values[in])
		}
		values[g.Name] = g.Eval(buf)
	}
	return values, nil
}

// EvalOutputs evaluates the network and returns outputs in output order.
func (tn *Network) EvalOutputs(inputs map[string]bool) ([]bool, error) {
	values, err := tn.Eval(inputs)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(tn.Outputs))
	for i, o := range tn.Outputs {
		out[i] = values[o]
	}
	return out, nil
}

// Levels returns the level of each signal (inputs at 0) and the depth.
func (tn *Network) Levels() (map[string]int, int) {
	order, err := tn.TopoGates()
	if err != nil {
		panic(err)
	}
	levels := make(map[string]int, len(order))
	for _, in := range tn.Inputs {
		levels[in] = 0
	}
	depth := 0
	for _, g := range order {
		l := 0
		for _, in := range g.Inputs {
			if levels[in]+1 > l {
				l = levels[in] + 1
			}
		}
		levels[g.Name] = l
		if l > depth {
			depth = l
		}
	}
	return levels, depth
}

// Stats summarizes the network for reporting as in Table I.
type Stats struct {
	Gates  int
	Levels int
	Area   int
}

// Stats computes summary metrics.
func (tn *Network) Stats() Stats {
	_, depth := tn.Levels()
	return Stats{Gates: tn.GateCount(), Levels: depth, Area: tn.Area()}
}

// String renders the network in .tln form.
func (tn *Network) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".tnet %s\n", tn.Name)
	fmt.Fprintf(&b, ".inputs %s\n", strings.Join(tn.Inputs, " "))
	fmt.Fprintf(&b, ".outputs %s\n", strings.Join(tn.Outputs, " "))
	order, err := tn.TopoGates()
	if err != nil {
		order = tn.Gates
	}
	for _, g := range order {
		fmt.Fprintf(&b, ".gate %s\n", g)
	}
	b.WriteString(".end\n")
	return b.String()
}

// SortedGateNames returns the gate names sorted, for deterministic tests.
func (tn *Network) SortedGateNames() []string {
	names := make([]string, 0, len(tn.Gates))
	for _, g := range tn.Gates {
		names = append(names, g.Name)
	}
	sort.Strings(names)
	return names
}
