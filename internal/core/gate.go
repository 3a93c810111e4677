// Package core implements TELS, the threshold logic synthesizer of
// Zhang, Gupta, Zhong and Jha (DATE 2004): multi-level, multi-output
// synthesis of linear-threshold-gate networks from Boolean networks, with
// fanin restriction and defect tolerances, plus the one-to-one mapping
// baseline the paper compares against.
package core

import (
	"fmt"
	"strconv"

	"tels/internal/truth"
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

// Truth returns the gate's Boolean function over its inputs (bit i of
// the minterm is input i): minterm m is on when the weights of its set
// inputs sum to at least T. The gate has at most truth.MaxVars inputs.
func (g *Gate) Truth() *truth.Table {
	tt := truth.New(len(g.Inputs))
	for m := 0; m < tt.Size(); m++ {
		sum := 0
		for i, w := range g.Weights {
			if m>>uint(i)&1 == 1 {
				sum += w
			}
		}
		tt.Set(m, sum >= g.T)
	}
	return tt
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
	return string(g.appendTLN(nil))
}

// appendTLN appends the gate's .tln text, "f = [T=2] +1*a -1*b", to b.
// Every weight carries its sign, zero as +0.
func (g *Gate) appendTLN(b []byte) []byte {
	b = append(b, g.Name...)
	b = append(b, " = [T="...)
	b = strconv.AppendInt(b, int64(g.T), 10)
	b = append(b, ']')
	for i, in := range g.Inputs {
		b = append(b, ' ')
		if g.Weights[i] >= 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, int64(g.Weights[i]), 10)
		b = append(b, '*')
		b = append(b, in...)
	}
	return b
}

// Network is a combinational threshold network: a DAG of LTGs over named
// primary inputs. Gates is in topological order: every gate input is a
// primary input or an earlier gate. AddGate and ParseTLN keep that
// invariant, so a reader walks Gates front to back.
type Network struct {
	Name    string
	Inputs  []string
	Outputs []string
	Gates   []*Gate

	// signals maps every input name to nil and every gate name to its gate.
	signals map[string]*Gate
}

// NewNetwork returns an empty threshold network.
func NewNetwork(name string) *Network {
	return &Network{Name: name, signals: make(map[string]*Gate)}
}

// AddInput declares a primary input name, which must not be declared yet.
func (tn *Network) AddInput(name string) {
	tn.Inputs = append(tn.Inputs, name)
	tn.signals[name] = nil
}

// AddGate appends a gate. Its name must be new, and every gate input must
// be a primary input or an earlier gate, so a cycle or a dangling input
// cannot be built.
func (tn *Network) AddGate(g *Gate) error {
	for _, in := range g.Inputs {
		if _, ok := tn.signals[in]; !ok {
			return fmt.Errorf("core: gate %s reads %s, which is not an input or an earlier gate", g.Name, in)
		}
	}
	return tn.appendGate(g)
}

// appendGate appends a gate without the order check. A builder that
// emits a gate before its drivers appends through it and calls sortGates
// once before handing the network out.
func (tn *Network) appendGate(g *Gate) error {
	if len(g.Inputs) != len(g.Weights) {
		return fmt.Errorf("core: gate %s has %d inputs but %d weights",
			g.Name, len(g.Inputs), len(g.Weights))
	}
	if prev, dup := tn.signals[g.Name]; dup {
		if prev == nil {
			return fmt.Errorf("core: gate %s shadows a primary input", g.Name)
		}
		return fmt.Errorf("core: duplicate gate name %s", g.Name)
	}
	tn.Gates = append(tn.Gates, g)
	tn.signals[g.Name] = g
	return nil
}

// sortGates puts Gates in topological order: a depth-first walk from each
// gate in list order emits every gate after its drivers. A list that is
// already topological stays as it is. It fails when a gate input names no
// signal or the gates form a cycle.
func (tn *Network) sortGates() error {
	const (
		active = 1
		done   = 2
	)
	state := make(map[*Gate]uint8, len(tn.Gates))
	order := make([]*Gate, 0, len(tn.Gates))
	var visit func(g *Gate) error
	visit = func(g *Gate) error {
		switch state[g] {
		case done:
			return nil
		case active:
			return fmt.Errorf("core: cycle through gate %s", g.Name)
		}
		state[g] = active
		for _, in := range g.Inputs {
			d, ok := tn.signals[in]
			if !ok {
				return fmt.Errorf("core: signal %s is not an input or gate", in)
			}
			if d != nil {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[g] = done
		order = append(order, g)
		return nil
	}
	for _, g := range tn.Gates {
		if err := visit(g); err != nil {
			return err
		}
	}
	tn.Gates = order
	return nil
}

// Gate returns the gate driving the named signal, or nil.
func (tn *Network) Gate(name string) *Gate { return tn.signals[name] }

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

// Validate checks that every output is an input or a gate. Gate order
// and gate inputs need no check: AddGate and ParseTLN hold them.
func (tn *Network) Validate() error {
	for _, o := range tn.Outputs {
		if _, ok := tn.signals[o]; !ok {
			return fmt.Errorf("core: output %s is not driven", o)
		}
	}
	return nil
}

// Eval computes every signal value under the given primary-input
// assignment and returns the map of all signal values.
func (tn *Network) Eval(inputs map[string]bool) (map[string]bool, error) {
	values := make(map[string]bool, len(tn.Gates)+len(tn.Inputs))
	for _, in := range tn.Inputs {
		v, ok := inputs[in]
		if !ok {
			return nil, fmt.Errorf("core: no value for input %s", in)
		}
		values[in] = v
	}
	buf := make([]bool, 0, 16)
	for _, g := range tn.Gates {
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
	levels := make(map[string]int, len(tn.Gates)+len(tn.Inputs))
	for _, in := range tn.Inputs {
		levels[in] = 0
	}
	depth := 0
	for _, g := range tn.Gates {
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
	b := make([]byte, 0, 256)
	b = append(b, ".tnet "...)
	b = append(b, tn.Name...)
	b = appendNames(append(b, "\n.inputs "...), tn.Inputs)
	b = appendNames(append(b, "\n.outputs "...), tn.Outputs)
	b = append(b, '\n')
	for _, g := range tn.Gates {
		b = g.appendTLN(append(b, ".gate "...))
		b = append(b, '\n')
	}
	b = append(b, ".end\n"...)
	return string(b)
}

// appendNames appends the names to b, separated by single spaces.
func appendNames(b []byte, names []string) []byte {
	for i, name := range names {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, name...)
	}
	return b
}
