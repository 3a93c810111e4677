package network

import "tels/internal/logic"

// Builder provides convenience constructors for common gate shapes. It
// exists for the benchmark generators and tests; the synthesis passes
// construct covers directly.
type Builder struct {
	Net *Network
}

// NewBuilder wraps a network in a Builder.
func NewBuilder(name string) *Builder {
	return &Builder{Net: New(name)}
}

// Input adds a primary input.
func (b *Builder) Input(name string) *Node { return b.Net.AddInput(name) }

// gate adds a fresh internal node named after base.
func (b *Builder) gate(base string, fanins []*Node, cover logic.Cover) *Node {
	return b.Net.AddNode(b.Net.FreshName(base), fanins, cover)
}

// And adds an AND gate over the fanins.
func (b *Builder) And(name string, ins ...*Node) *Node {
	c := logic.NewCube(len(ins))
	for i := range ins {
		c[i] = logic.Pos
	}
	cv := logic.NewCover(len(ins))
	cv.AddCube(c)
	return b.gate(name, ins, cv)
}

// Or adds an OR gate over the fanins.
func (b *Builder) Or(name string, ins ...*Node) *Node {
	cv := logic.NewCover(len(ins))
	for i := range ins {
		c := logic.NewCube(len(ins))
		c[i] = logic.Pos
		cv.AddCube(c)
	}
	return b.gate(name, ins, cv)
}

// Not adds an inverter.
func (b *Builder) Not(name string, in *Node) *Node {
	cv := logic.NewCover(1)
	cv.AddCube(logic.Cube{logic.Neg})
	return b.gate(name, []*Node{in}, cv)
}

// Buf adds a buffer (identity) node.
func (b *Builder) Buf(name string, in *Node) *Node {
	cv := logic.NewCover(1)
	cv.AddCube(logic.Cube{logic.Pos})
	return b.gate(name, []*Node{in}, cv)
}

// Xor adds a two-input XOR gate.
func (b *Builder) Xor(name string, a, x *Node) *Node {
	cv := logic.MustCover("10", "01")
	return b.gate(name, []*Node{a, x}, cv)
}

// Xnor adds a two-input XNOR gate.
func (b *Builder) Xnor(name string, a, x *Node) *Node {
	cv := logic.MustCover("11", "00")
	return b.gate(name, []*Node{a, x}, cv)
}

// Nand adds a NAND gate over the fanins.
func (b *Builder) Nand(name string, ins ...*Node) *Node {
	cv := logic.NewCover(len(ins))
	for i := range ins {
		c := logic.NewCube(len(ins))
		c[i] = logic.Neg
		cv.AddCube(c)
	}
	return b.gate(name, ins, cv)
}

// Mux2 adds a 2:1 multiplexer: sel ? a1 : a0.
func (b *Builder) Mux2(name string, sel, a0, a1 *Node) *Node {
	// f = !sel*a0 + sel*a1 over (sel, a0, a1).
	cv := logic.MustCover("01-", "1-1")
	return b.gate(name, []*Node{sel, a0, a1}, cv)
}

// Node adds an internal node with an explicit cover.
func (b *Builder) Node(name string, cover logic.Cover, ins ...*Node) *Node {
	return b.gate(name, ins, cover)
}

// Output marks the node as a primary output.
func (b *Builder) Output(n *Node) { b.Net.MarkOutput(n) }

// OutputAs adds a buffer named name driven by n and marks it an output.
// Useful to give outputs stable names independent of internal nodes.
func (b *Builder) OutputAs(name string, n *Node) *Node {
	o := b.Buf(name, n)
	b.Net.MarkOutput(o)
	return o
}
