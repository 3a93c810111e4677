package netcore

import (
	"fmt"

	"tels/internal/logic"
	"tels/internal/truth"
)

// Word-parallel cone evaluation. EvalWords walks the cone between the
// support nets and the roots once, evaluating every cover on packed rows
// of 64 lanes per word. The caller chooses what a lane is. NetLocalTTs
// feeds truth.Var rows, so lane m is minterm m and the rows are the truth
// tables the pointer network's LocalFunction computes minterm by minterm
// (a truth table is determined by the function, and the function of the
// window is the same regardless of evaluation strategy). fsim feeds the
// input columns of a vector batch, so lane v is vector v.

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
	cw := coneWalk{nw: nw, memo: make(map[Net][]uint64, 16), words: truth.WordsFor(k)}
	for i, s := range support {
		cw.memo[s] = truth.Var(k, i).Words()
	}
	tts := make([]*truth.Table, len(roots))
	for i, r := range roots {
		res, err := cw.evalRoot(r)
		if err != nil {
			return nil, err
		}
		tts[i] = truth.FromWords(k, res)
	}
	return tts, nil
}

// EvalWords evaluates the roots over packed rows: rows[i], of length
// words, holds the lanes of support[i], and row r of the result holds
// root r on the same lanes. Every path from a root must reach a support
// net or an input-free constant; support nets cut the cone, and cone nets
// the roots share are evaluated once. A root that is a support net gets
// the caller's row itself, not a copy, and repeated roots share one row.
func (nw *Network) EvalWords(roots, support []Net, rows [][]uint64, words int) ([][]uint64, error) {
	cw := coneWalk{nw: nw, memo: make(map[Net][]uint64, 16), words: words}
	for i, s := range support {
		if len(rows[i]) != words {
			return nil, fmt.Errorf("netcore: row of %s has %d words, want %d",
				nw.nets[s].name, len(rows[i]), words)
		}
		cw.memo[s] = rows[i]
	}
	out := make([][]uint64, len(roots))
	for i, r := range roots {
		res, err := cw.evalRoot(r)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// coneWalk is one memoised walk of EvalWords or NetLocalTTs: memo holds
// the rows of the support nets and of every cone net evaluated so far, so
// the callers feed it their own rows and keep its results without an
// intermediate copy.
type coneWalk struct {
	nw    *Network
	memo  map[Net][]uint64
	words int
	root  Net // the root being evaluated, for the escape error
}

func (cw *coneWalk) evalRoot(r Net) ([]uint64, error) {
	cw.root = r
	return cw.eval(r)
}

func (cw *coneWalk) eval(x Net) ([]uint64, error) {
	if w, ok := cw.memo[x]; ok {
		return w, nil
	}
	nw := cw.nw
	if nw.nets[x].kind == NetInput {
		return nil, fmt.Errorf("netcore: cone of %s escapes support at input %s",
			nw.nets[cw.root].name, nw.nets[x].name)
	}
	fans := nw.NetFanins(x)
	args := make([][]uint64, len(fans))
	for i, f := range fans {
		w, err := cw.eval(f)
		if err != nil {
			return nil, err
		}
		args[i] = w
	}
	phases, nCubes, width := nw.NetCubes(x)
	out := make([]uint64, cw.words)
	coverEvalWords(phases, nCubes, width, args, out)
	cw.memo[x] = out
	return out, nil
}
