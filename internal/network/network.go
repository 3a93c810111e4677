// Package network models a multi-output combinational Boolean network: a
// DAG whose nodes carry sum-of-products functions over their fanins, as in
// the SIS logic-synthesis system that the original TELS tool was built on.
package network

import (
	"fmt"
	"strings"

	"tels/internal/logic"
	"tels/internal/truth"
)

// NodeKind distinguishes primary inputs from internal logic nodes.
type NodeKind int

// Node kinds.
const (
	Input    NodeKind = iota // primary input
	Internal                 // logic node with a cover over its fanins
)

// Node is one signal of the network.
type Node struct {
	Name   string
	Kind   NodeKind
	Fanins []*Node
	// Cover is the node function over Fanins (position i of each cube is
	// the phase of Fanins[i]). Meaningful only for Internal nodes.
	Cover logic.Cover
}

// Network is a named multi-output Boolean network.
type Network struct {
	Name    string
	nodes   map[string]*Node
	order   []*Node // creation order, for deterministic iteration
	Inputs  []*Node
	Outputs []*Node

	internalCount  int     // live internal nodes, for O(1) GateCount
	internals      []*Node // cached InternalNodes view, rebuilt when stale
	internalsStale bool
	suffix         map[string]int // FreshName next-suffix cache per base
}

// New returns an empty network with the given name.
func New(name string) *Network {
	return &Network{Name: name, nodes: make(map[string]*Node), suffix: make(map[string]int)}
}

// AddInput creates a primary input node. It panics if the name is taken.
func (nw *Network) AddInput(name string) *Node {
	nw.mustBeFresh(name)
	n := &Node{Name: name, Kind: Input}
	nw.nodes[name] = n
	nw.order = append(nw.order, n)
	nw.Inputs = append(nw.Inputs, n)
	return n
}

// AddNode creates an internal node computing the cover over the fanins.
// The cover's variable count must equal len(fanins).
func (nw *Network) AddNode(name string, fanins []*Node, cover logic.Cover) *Node {
	nw.mustBeFresh(name)
	if cover.N != len(fanins) {
		panic(fmt.Sprintf("network: node %s: cover over %d variables with %d fanins",
			name, cover.N, len(fanins)))
	}
	n := &Node{Name: name, Kind: Internal, Fanins: append([]*Node(nil), fanins...), Cover: cover}
	nw.nodes[name] = n
	nw.order = append(nw.order, n)
	nw.internalCount++
	nw.internalsStale = true
	return n
}

// AddShell creates an internal node with no function yet, reserving its
// name and creation-order slot. BindNode must install the function before
// the network is used. The pair exists so converters (netcore.ToNetwork)
// can reproduce creation orders that are not topological — extraction
// rewrites fanin lists to point at later-created divisor nodes, so
// creation order alone cannot drive AddNode.
func (nw *Network) AddShell(name string) *Node {
	nw.mustBeFresh(name)
	n := &Node{Name: name, Kind: Internal}
	nw.nodes[name] = n
	nw.order = append(nw.order, n)
	nw.internalCount++
	nw.internalsStale = true
	return n
}

// BindNode installs the function of a node created with AddShell.
func (nw *Network) BindNode(n *Node, fanins []*Node, cover logic.Cover) {
	if cover.N != len(fanins) {
		panic(fmt.Sprintf("network: node %s: cover over %d variables with %d fanins",
			n.Name, cover.N, len(fanins)))
	}
	n.Fanins = append([]*Node(nil), fanins...)
	n.Cover = cover
}

func (nw *Network) mustBeFresh(name string) {
	if _, dup := nw.nodes[name]; dup {
		panic(fmt.Sprintf("network: duplicate node name %q", name))
	}
}

// MarkOutput declares the node a primary output. A node may be marked once.
func (nw *Network) MarkOutput(n *Node) {
	for _, o := range nw.Outputs {
		if o == n {
			return
		}
	}
	nw.Outputs = append(nw.Outputs, n)
}

// Node returns the node with the given name, or nil.
func (nw *Network) Node(name string) *Node { return nw.nodes[name] }

// Nodes returns all nodes in creation order.
func (nw *Network) Nodes() []*Node { return nw.order }

// InternalNodes returns the internal nodes in creation order. The view is
// cached and rebuilt only after node additions or removals; callers must
// treat it as read-only (mutating passes already do — they rewrite node
// functions, not the returned slice).
func (nw *Network) InternalNodes() []*Node {
	if nw.internalsStale || nw.internals == nil {
		// Always a fresh slice: holders of the previous view keep a
		// consistent snapshot, exactly as with the old allocate-per-call
		// behaviour.
		out := make([]*Node, 0, nw.internalCount)
		for _, n := range nw.order {
			if n.Kind == Internal {
				out = append(out, n)
			}
		}
		nw.internals = out
		nw.internalsStale = false
	}
	return nw.internals
}

// GateCount returns the number of internal nodes in O(1).
func (nw *Network) GateCount() int { return nw.internalCount }

// FreshName returns a node name derived from base that is not yet used.
// A cached next suffix per base makes the scan O(1) amortized instead of
// O(n) per call; removals invalidate the affected base (see remove), so
// the produced names are identical to a from-zero rescan.
func (nw *Network) FreshName(base string) string {
	if _, taken := nw.nodes[base]; !taken {
		return base
	}
	for i := nw.suffix[base]; ; i++ {
		name := fmt.Sprintf("%s_%d", base, i)
		if _, taken := nw.nodes[name]; !taken {
			nw.suffix[base] = i
			return name
		}
	}
}

// TopoSort returns the nodes in topological order (fanins before fanouts).
// It returns an error if the network contains a cycle.
func (nw *Network) TopoSort() ([]*Node, error) {
	const (
		unseen = 0
		active = 1
		done   = 2
	)
	state := make(map[*Node]int, len(nw.order))
	var out []*Node
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch state[n] {
		case done:
			return nil
		case active:
			return fmt.Errorf("network %s: cycle through node %s", nw.Name, n.Name)
		}
		state[n] = active
		for _, f := range n.Fanins {
			if err := visit(f); err != nil {
				return err
			}
		}
		state[n] = done
		out = append(out, n)
		return nil
	}
	for _, n := range nw.order {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Validate checks structural sanity: acyclicity, fanins present in the
// network, cover arity, and that outputs exist.
func (nw *Network) Validate() error {
	if _, err := nw.TopoSort(); err != nil {
		return err
	}
	for _, n := range nw.order {
		if n.Kind == Internal && n.Cover.N != len(n.Fanins) {
			return fmt.Errorf("network %s: node %s cover arity %d != fanin count %d",
				nw.Name, n.Name, n.Cover.N, len(n.Fanins))
		}
		for _, f := range n.Fanins {
			if nw.nodes[f.Name] != f {
				return fmt.Errorf("network %s: node %s has foreign fanin %s", nw.Name, n.Name, f.Name)
			}
		}
	}
	if len(nw.Outputs) == 0 {
		return fmt.Errorf("network %s: no primary outputs", nw.Name)
	}
	return nil
}

// FanoutCounts returns, for every node, how many internal nodes reference
// it as a fanin (multiple references from one node count once per position)
// plus one per primary-output marking.
func (nw *Network) FanoutCounts() map[*Node]int {
	counts := make(map[*Node]int, len(nw.order))
	for _, n := range nw.order {
		for _, f := range n.Fanins {
			counts[f]++
		}
	}
	for _, o := range nw.Outputs {
		counts[o]++
	}
	return counts
}

// Levels returns each node's level (primary inputs at 0, every internal
// node one more than its deepest fanin) and the network depth.
func (nw *Network) Levels() (map[*Node]int, int) {
	order, err := nw.TopoSort()
	if err != nil {
		panic(err)
	}
	levels := make(map[*Node]int, len(order))
	depth := 0
	for _, n := range order {
		if n.Kind == Input {
			levels[n] = 0
			continue
		}
		l := 0
		for _, f := range n.Fanins {
			if levels[f]+1 > l {
				l = levels[f] + 1
			}
		}
		levels[n] = l
		if l > depth {
			depth = l
		}
	}
	return levels, depth
}

// Eval computes the value of every node under the given input assignment.
// The assignment must cover every primary input by name.
func (nw *Network) Eval(inputs map[string]bool) (map[string]bool, error) {
	order, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	values := make(map[string]bool, len(order))
	for _, n := range order {
		if n.Kind == Input {
			v, ok := inputs[n.Name]
			if !ok {
				return nil, fmt.Errorf("network %s: no value for input %s", nw.Name, n.Name)
			}
			values[n.Name] = v
			continue
		}
		assign := make([]bool, len(n.Fanins))
		for i, f := range n.Fanins {
			assign[i] = values[f.Name]
		}
		values[n.Name] = n.Cover.Eval(assign)
	}
	return values, nil
}

// EvalOutputs evaluates the network and returns output values in output
// order.
func (nw *Network) EvalOutputs(inputs map[string]bool) ([]bool, error) {
	values, err := nw.Eval(inputs)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(nw.Outputs))
	for i, o := range nw.Outputs {
		out[i] = values[o.Name]
	}
	return out, nil
}

// LocalFunction returns the truth table of node n expressed over the given
// support nodes, treating every support node as a free variable and
// evaluating the cone between them and n. Every path from n must reach a
// support node or primary-input-free constant; support nodes cut the cone.
func (nw *Network) LocalFunction(n *Node, support []*Node) (*truth.Table, error) {
	if len(support) > truth.MaxVars {
		return nil, fmt.Errorf("network: support of %d exceeds %d variables", len(support), truth.MaxVars)
	}
	pos := make(map[*Node]int, len(support))
	for i, s := range support {
		pos[s] = i
	}
	tt := truth.New(len(support))
	assign := make(map[*Node]bool, len(support))
	var eval func(x *Node) (bool, error)
	eval = func(x *Node) (bool, error) {
		if v, ok := assign[x]; ok {
			return v, nil
		}
		if x.Kind == Input {
			return false, fmt.Errorf("network: cone of %s escapes support at input %s", n.Name, x.Name)
		}
		in := make([]bool, len(x.Fanins))
		for i, f := range x.Fanins {
			v, err := eval(f)
			if err != nil {
				return false, err
			}
			in[i] = v
		}
		v := x.Cover.Eval(in)
		assign[x] = v
		return v, nil
	}
	for m := 0; m < tt.Size(); m++ {
		for k := range assign {
			delete(assign, k)
		}
		for i, s := range support {
			assign[s] = m&(1<<uint(i)) != 0
		}
		v, err := eval(n)
		if err != nil {
			return nil, err
		}
		tt.Set(m, v)
	}
	return tt, nil
}

func (nw *Network) remove(n *Node) {
	delete(nw.nodes, n.Name)
	// Freeing base_i re-opens a hole below the cached next suffix; drop the
	// cache entry so FreshName rescans that base from zero.
	if i := strings.LastIndexByte(n.Name, '_'); i >= 0 {
		delete(nw.suffix, n.Name[:i])
	}
	for i, x := range nw.order {
		if x == n {
			nw.order = append(nw.order[:i], nw.order[i+1:]...)
			break
		}
	}
	if n.Kind == Input {
		for i, x := range nw.Inputs {
			if x == n {
				nw.Inputs = append(nw.Inputs[:i], nw.Inputs[i+1:]...)
				break
			}
		}
	} else {
		nw.internalCount--
	}
	nw.internalsStale = true
}

// RemoveDangling deletes internal nodes with no fanouts that are not
// outputs, repeating until fixpoint. It returns the number removed.
func (nw *Network) RemoveDangling() int {
	removed := 0
	for {
		counts := nw.FanoutCounts()
		var victims []*Node
		for _, n := range nw.order {
			if n.Kind == Internal && counts[n] == 0 {
				victims = append(victims, n)
			}
		}
		if len(victims) == 0 {
			return removed
		}
		for _, v := range victims {
			nw.remove(v)
			removed++
		}
	}
}

// Clone returns a deep copy of the network. Node identities are new but
// names, structure and covers are identical.
func (nw *Network) Clone() *Network {
	out := New(nw.Name)
	mapping := make(map[*Node]*Node, len(nw.order))
	for _, n := range nw.order {
		if n.Kind == Input {
			mapping[n] = out.AddInput(n.Name)
		}
	}
	// Internal nodes in topological order so fanins exist first.
	order, err := nw.TopoSort()
	if err != nil {
		panic(err)
	}
	for _, n := range order {
		if n.Kind != Internal {
			continue
		}
		fanins := make([]*Node, len(n.Fanins))
		for i, f := range n.Fanins {
			fanins[i] = mapping[f]
		}
		mapping[n] = out.AddNode(n.Name, fanins, n.Cover.Clone())
	}
	for _, o := range nw.Outputs {
		out.MarkOutput(mapping[o])
	}
	return out
}

// Stats summarizes a network for reporting.
type Stats struct {
	Inputs   int
	Outputs  int
	Gates    int
	Levels   int
	Literals int
}

// Stats computes summary statistics.
func (nw *Network) Stats() Stats {
	_, depth := nw.Levels()
	lits := 0
	for _, n := range nw.InternalNodes() {
		lits += n.Cover.LiteralCount()
	}
	return Stats{
		Inputs:   len(nw.Inputs),
		Outputs:  len(nw.Outputs),
		Gates:    nw.GateCount(),
		Levels:   depth,
		Literals: lits,
	}
}
