package core

import (
	"fmt"

	"tels/internal/netcore"
	"tels/internal/network"
	"tels/internal/opt"
	"tels/internal/truth"
)

// OneToOne builds the paper's baseline: the Boolean network is decomposed
// into simple gates (AND/OR/NOT/BUF) honouring the fanin restriction, and
// every gate — inverters included, as in the paper's motivational example —
// is replaced by one threshold gate whose weights come from the same ILP
// used by the synthesizer.
func OneToOne(src *network.Network, o Options) (*Network, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if err := src.Validate(); err != nil {
		return nil, err
	}
	dec := opt.TechDecomp(netcore.FromNetwork(src), o.Fanin)
	out := NewNetwork(src.Name)
	for _, in := range dec.Inputs() {
		out.AddInput(dec.NetName(in))
	}
	var chk Checker
	order, err := dec.TopoNets()
	if err != nil {
		return nil, err
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
			t := o.DeltaOff
			if t < 1 {
				t = 1
			}
			if v {
				t = -don
			}
			if err := out.AddGate(&Gate{Name: name, T: t}); err != nil {
				return nil, err
			}
			continue
		}
		vec, ok := chk.Check(tt, don, o.DeltaOff, o.MaxWeight)
		if !ok {
			return nil, fmt.Errorf("core: one-to-one gate %s is not threshold (cover %v)", name, cv)
		}
		fanins := dec.NetFanins(n)
		inputs := make([]string, len(fanins))
		for i, f := range fanins {
			inputs[i] = dec.NetName(f)
		}
		if err := out.AddGate(&Gate{Name: name, Inputs: inputs, Weights: vec.Weights, T: vec.T}); err != nil {
			return nil, err
		}
	}
	for _, o := range dec.Outputs() {
		out.MarkOutput(dec.NetName(o))
	}
	out.MergeDuplicates()
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// SynthesizeBest implements the paper's §VI-A remark that "we can always
// choose the better of the two networks": it runs both TELS and the
// one-to-one mapping on the network and returns whichever needs fewer
// gates (area breaks ties), so the result is never worse than the
// baseline. The returned flag reports whether TELS won.
func SynthesizeBest(src *network.Network, o Options) (*Network, bool, error) {
	tels, _, err := Synthesize(src, o)
	if err != nil {
		return nil, false, err
	}
	oneToOne, err := OneToOne(src, o)
	if err != nil {
		return nil, false, err
	}
	ts, os := tels.Stats(), oneToOne.Stats()
	if ts.Gates < os.Gates || (ts.Gates == os.Gates && ts.Area <= os.Area) {
		return tels, true, nil
	}
	return oneToOne, false, nil
}
