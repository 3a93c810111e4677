package resyn

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"tels/internal/core"
	"tels/internal/netcore"
	"tels/internal/truth"
)

// A hardened replacement is represented as a canonical threshold-network
// fragment: primary inputs r0..r{k-1} (one per support position of the
// gate's reduced function), a single primary output gate named repOutput,
// and — when the vector re-derivation fell back to re-decomposition —
// internal part gates. Canonical naming makes the fragment independent of
// where the gate sits in its network, so two gates computing the same
// function at the same margin share one memo entry, and the service can
// cache fragments content-addressed across jobs.
const repOutput = "f"

func repInput(i int) string { return fmt.Sprintf("r%d", i) }

// Memo caches hardened replacements. Keys are content digests of
// (canonical function, margin, synthesis knobs); values are the
// replacement fragment in .tln text form. Implementations must be safe
// for the caller's concurrency model (the loop itself is sequential).
type Memo interface {
	Get(key string) (string, bool)
	Put(key, tln string)
}

// MapMemo is the trivial in-process Memo.
type MapMemo map[string]string

// Get implements Memo.
func (m MapMemo) Get(key string) (string, bool) { v, ok := m[key]; return v, ok }

// Put implements Memo.
func (m MapMemo) Put(key, tln string) { m[key] = tln }

// memoKey is the content address of one (function, δon) synthesis under
// the loop's synthesis knobs.
func memoKey(tt *truth.Table, don int, o core.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "resyn/v1\nn=%d\ndon=%d\ndoff=%d\nmaxw=%d\nfanin=%d\nseed=%d\nbits=",
		tt.N(), don, o.DeltaOff, o.MaxWeight, o.Fanin, o.Seed)
	b := make([]byte, tt.Size())
	for m := 0; m < tt.Size(); m++ {
		if tt.Get(m) {
			b[m] = 1
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// replacement is one hardened realization of a gate's reduced function.
type replacement struct {
	frag *core.Network // canonical fragment (inputs r0.., output repOutput)
	// keptInputs maps fragment input position to the original gate input
	// index (the reduced support).
	keptInputs []int
	decomposed bool // true when re-decomposition was needed
	cacheHit   bool // served from the memo
}

// deriveReplacement re-derives the gate's weight–threshold vector at the
// elevated margin don, falling back to re-decomposing the gate's function
// through the TELS mapper (driven by the per-node δon override path) when
// no single-gate vector exists at that margin under the weight bound.
func deriveReplacement(g *core.Gate, don int, o core.Options, memo Memo) (*replacement, error) {
	if len(g.Inputs) > truth.MaxVars {
		return nil, fmt.Errorf("resyn: gate %s fanin %d exceeds the %d-variable engine limit",
			g.Name, len(g.Inputs), truth.MaxVars)
	}
	tt := g.Truth()
	sup := tt.Support()
	if len(sup) < tt.N() {
		tt = tt.Project(sup)
	}
	r := &replacement{keptInputs: sup}

	key := memoKey(tt, don, o)
	if memo != nil {
		if text, ok := memo.Get(key); ok {
			frag, err := core.ParseTLNString(text)
			if err != nil {
				return nil, fmt.Errorf("resyn: corrupt memo entry: %w", err)
			}
			r.frag = frag
			r.decomposed = frag.GateCount() > 1
			r.cacheHit = true
			return r, nil
		}
	}

	frag, err := synthesizeFragment(tt, don, o)
	if err != nil {
		return nil, err
	}
	r.frag = frag
	r.decomposed = frag.GateCount() > 1
	if memo != nil {
		memo.Put(key, frag.String())
	}
	return r, nil
}

// synthesizeFragment builds the canonical fragment for tt at margin don:
// a single gate when the ILP finds a vector, the re-decomposed cone
// otherwise.
func synthesizeFragment(tt *truth.Table, don int, o core.Options) (*core.Network, error) {
	frag := core.NewNetwork("resyn")
	for i := 0; i < tt.N(); i++ {
		frag.AddInput(repInput(i))
	}

	if isConst, v := tt.IsConst(); isConst {
		if err := frag.AddGate(core.ConstGate(repOutput, v, don, o.DeltaOff)); err != nil {
			return nil, err
		}
		frag.MarkOutput(repOutput)
		return frag, nil
	}

	var chk core.Checker
	if vec, ok := chk.Check(tt, don, o.DeltaOff, o.MaxWeight); ok {
		inputs := make([]string, tt.N())
		for i := range inputs {
			inputs[i] = repInput(i)
		}
		if err := frag.AddGate(&core.Gate{Name: repOutput, Inputs: inputs, Weights: vec.Weights, T: vec.T}); err != nil {
			return nil, err
		}
		frag.MarkOutput(repOutput)
		return frag, nil
	}

	// No vector at this margin (weight bound or ILP budget): re-decompose
	// the cone through the synthesizer, raising only this node's margin
	// via the per-node override so every emitted part gate carries don.
	src := netcore.New("resyn")
	fanins := make([]netcore.Net, tt.N())
	for i := range fanins {
		fanins[i] = src.AddInput(repInput(i))
	}
	src.MarkOutput(src.AddNode(repOutput, fanins, tt.MinimalSOP()))

	so := o
	so.DeltaOnOverrides = map[string]int{repOutput: don}
	sub, _, err := core.Map("tels", src, so)
	if err != nil {
		return nil, fmt.Errorf("resyn: re-decomposition at δon=%d: %w", don, err)
	}
	return sub, nil
}

// splice returns a new network with the named gate replaced by the
// fragment: the fragment's output takes the gate's name, its inputs map
// to the gate's (reduced) fanin signals, and its internal gates get fresh
// non-colliding names. The second return lists the names of every gate
// the replacement contributed, output first.
func splice(tn *core.Network, gateName string, r *replacement) (*core.Network, []string, error) {
	target := tn.Gate(gateName)
	if target == nil {
		return nil, nil, fmt.Errorf("resyn: no gate %s to splice", gateName)
	}

	rename := make(map[string]string, len(r.frag.Inputs)+r.frag.GateCount())
	for i, in := range r.frag.Inputs {
		rename[in] = target.Inputs[r.keptInputs[i]]
	}
	rename[repOutput] = gateName

	out := core.NewNetwork(tn.Name)
	for _, in := range tn.Inputs {
		out.AddInput(in)
	}
	taken := func(name string) bool {
		if tn.Gate(name) != nil || out.Gate(name) != nil {
			return true
		}
		for _, in := range tn.Inputs {
			if in == name {
				return true
			}
		}
		return false
	}
	serial := 0
	fresh := func(base string) string {
		for {
			serial++
			name := fmt.Sprintf("%s.h%d", base, serial)
			if !taken(name) {
				return name
			}
		}
	}

	added := []string{gateName}
	for _, g := range tn.Gates {
		if g.Name != gateName {
			if err := out.AddGate(g); err != nil {
				return nil, nil, err
			}
			continue
		}
		// The fragment takes the gate's place. Its gates come drivers
		// first, so each one's inputs are renamed before it is added.
		for _, fg := range r.frag.Gates {
			if fg.Name != repOutput {
				rename[fg.Name] = fresh(gateName)
				added = append(added, rename[fg.Name])
			}
			inputs := make([]string, len(fg.Inputs))
			for i, in := range fg.Inputs {
				inputs[i] = rename[in]
			}
			if err := out.AddGate(&core.Gate{
				Name:    rename[fg.Name],
				Inputs:  inputs,
				Weights: append([]int(nil), fg.Weights...),
				T:       fg.T,
			}); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, o := range tn.Outputs {
		out.MarkOutput(o)
	}
	return out, added, nil
}
