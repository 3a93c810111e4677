package netcore

import (
	"fmt"

	"tels/internal/logic"
	"tels/internal/truth"
)

// Word-parallel local truth tables. The pointer network's LocalFunction
// walks the cone once per minterm; here the whole table is computed in one
// cone walk, 64 minterms per word, with identical results (a truth table
// is determined by the function, and the function of the window is the
// same regardless of evaluation strategy).

// varMasks[i] is the packed table of variable i within one 64-minterm word.
var varMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

func ttWords(k int) int {
	if k < 6 {
		return 1
	}
	return 1 << uint(k-6)
}

// fillVarWords writes the packed projection table of variable i over k
// variables into out (len ttWords(k)).
func fillVarWords(out []uint64, k, i int) {
	if i < 6 {
		for w := range out {
			out[w] = varMasks[i]
		}
		return
	}
	for w := range out {
		if w&(1<<uint(i-6)) != 0 {
			out[w] = ^uint64(0)
		} else {
			out[w] = 0
		}
	}
}

// coverEvalWords evaluates a slab cover word-parallel: out = OR over cubes
// of AND over literals, with args[i] the packed table of fanin i.
func coverEvalWords(phases []logic.Phase, nCubes, width int, args [][]uint64, out []uint64) {
	for w := range out {
		var acc uint64
		for c := 0; c < nCubes; c++ {
			term := ^uint64(0)
			row := phases[c*width : (c+1)*width]
			for i, p := range row {
				switch p {
				case logic.Pos:
					term &= args[i][w]
				case logic.Neg:
					term &^= args[i][w]
				}
				if term == 0 {
					break
				}
			}
			acc |= term
			if acc == ^uint64(0) {
				break
			}
		}
		out[w] = acc
	}
}

// maskTT clears the unused high bits of a sub-64-minterm table word.
func maskTT(words []uint64, k int) {
	if k < 6 {
		words[0] &= (1 << uint(1<<uint(k))) - 1
	}
}

// NetLocalTT returns the truth table of net n over the given support nets,
// treating every support net as a free variable and evaluating the cone
// between them and n. Every path from n must reach a support net or an
// input-free constant; support nets cut the cone. Semantically identical
// to the pointer network's LocalFunction, but computed word-parallel in a
// single cone walk.
func (nw *Network) NetLocalTT(n Net, support []Net) (*truth.Table, error) {
	tts, err := nw.NetLocalTTs([]Net{n}, support)
	if err != nil {
		return nil, err
	}
	return tts[0], nil
}

// NetLocalTTs is NetLocalTT for several roots over one support: cone nets
// the roots share are evaluated once.
func (nw *Network) NetLocalTTs(roots, support []Net) ([]*truth.Table, error) {
	k := len(support)
	if k > truth.MaxVars {
		return nil, fmt.Errorf("netcore: support of %d exceeds %d variables", k, truth.MaxVars)
	}
	nWords := ttWords(k)
	memo := make(map[Net][]uint64, 16)
	for i, s := range support {
		w := make([]uint64, nWords)
		fillVarWords(w, k, i)
		memo[s] = w
	}
	var root Net
	var eval func(x Net) ([]uint64, error)
	eval = func(x Net) ([]uint64, error) {
		if w, ok := memo[x]; ok {
			return w, nil
		}
		if nw.nets[x].kind == NetInput {
			return nil, fmt.Errorf("netcore: cone of %s escapes support at input %s",
				nw.nets[root].name, nw.nets[x].name)
		}
		fans := nw.NetFanins(x)
		args := make([][]uint64, len(fans))
		for i, f := range fans {
			w, err := eval(f)
			if err != nil {
				return nil, err
			}
			args[i] = w
		}
		phases, nCubes, width := nw.NetCubes(x)
		out := make([]uint64, nWords)
		coverEvalWords(phases, nCubes, width, args, out)
		memo[x] = out
		return out, nil
	}
	tts := make([]*truth.Table, len(roots))
	for i, r := range roots {
		root = r
		res, err := eval(r)
		if err != nil {
			return nil, err
		}
		tt := truth.New(k)
		words := tt.Words()
		copy(words, res)
		maskTT(words, k)
		tts[i] = tt
	}
	return tts, nil
}

// HandleLocalTT returns the truth table of handle h over the given leaf
// handles, evaluating the structural cone between them and h. Every path
// must reach a leaf or a constant node.
func (nw *Network) HandleLocalTT(h Handle, leaves []Handle) (*truth.Table, error) {
	k := len(leaves)
	if k > truth.MaxVars {
		return nil, fmt.Errorf("netcore: leaf set of %d exceeds %d variables", k, truth.MaxVars)
	}
	nWords := ttWords(k)
	memo := make(map[Handle][]uint64, 16)
	for i, l := range leaves {
		w := make([]uint64, nWords)
		fillVarWords(w, k, i)
		memo[l] = w
	}
	var eval func(x Handle) ([]uint64, error)
	eval = func(x Handle) ([]uint64, error) {
		if w, ok := memo[x]; ok {
			return w, nil
		}
		nd := &nw.nodes[x]
		switch nd.kind {
		case kindConst:
			w := make([]uint64, nWords)
			if x == Const1 {
				for i := range w {
					w[i] = ^uint64(0)
				}
			}
			memo[x] = w
			return w, nil
		case kindInput:
			return nil, fmt.Errorf("netcore: cone of handle %d escapes leaves at input handle %d", h, x)
		}
		fans := nw.HandleFanins(x)
		args := make([][]uint64, len(fans))
		for i, f := range fans {
			w, err := eval(f)
			if err != nil {
				return nil, err
			}
			args[i] = w
		}
		phases, nCubes, width := nw.nodeCover(x)
		out := make([]uint64, nWords)
		coverEvalWords(phases, nCubes, width, args, out)
		memo[x] = out
		return out, nil
	}
	res, err := eval(h)
	if err != nil {
		return nil, err
	}
	tt := truth.New(k)
	words := tt.Words()
	copy(words, res)
	maskTT(words, k)
	return tt, nil
}
