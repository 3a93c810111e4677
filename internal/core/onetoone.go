package core

import (
	"fmt"

	"tels/internal/netcore"
	"tels/internal/opt"
	"tels/internal/truth"
)

// oneToOne builds the paper's baseline: the Boolean network is decomposed
// into simple gates (AND/OR/NOT/BUF) honouring the fanin restriction, and
// every gate — inverters included, as in the paper's motivational example —
// is replaced by one threshold gate whose weights come from the same ILP
// used by the synthesizer.
func oneToOne(src *netcore.Network, o Options) (*Network, SynthStats, error) {
	dec := opt.TechDecomp(src, o.Fanin)
	out := NewNetwork(src.Name)
	for _, in := range dec.Inputs() {
		out.AddInput(dec.NetName(in))
	}
	var chk Checker
	order, err := dec.TopoNets()
	if err != nil {
		return nil, SynthStats{}, err
	}
	for _, n := range order {
		if dec.NetKind(n) != netcore.NetFunc {
			continue
		}
		name := dec.NetName(n)
		don := o.DeltaOnFor(name)
		cv := dec.NetCover(n)
		tt := truth.FromCover(cv)
		if isConst, v := tt.IsConst(); isConst {
			if err := out.AddGate(ConstGate(name, v, don, o.DeltaOff)); err != nil {
				return nil, SynthStats{}, err
			}
			continue
		}
		vec, ok := chk.Check(tt, don, o.DeltaOff, o.MaxWeight)
		if !ok {
			return nil, SynthStats{}, fmt.Errorf("core: one-to-one gate %s is not threshold (cover %v)", name, cv)
		}
		fanins := dec.NetFanins(n)
		inputs := make([]string, len(fanins))
		for i, f := range fanins {
			inputs[i] = dec.NetName(f)
		}
		if err := out.AddGate(&Gate{Name: name, Inputs: inputs, Weights: vec.Weights, T: vec.T}); err != nil {
			return nil, SynthStats{}, err
		}
	}
	for _, o := range dec.Outputs() {
		out.MarkOutput(dec.NetName(o))
	}
	out.MergeDuplicates()
	if err := out.Validate(); err != nil {
		return nil, SynthStats{}, err
	}
	return out, SynthStats{}, nil
}
