// Package fsim is the word-parallel fault- and variation-simulation
// engine: it packs 64 input vectors into each uint64 word of a Batch and
// evaluates threshold networks (internal/core) gate by gate in
// topological order over preallocated flat buffers — no per-vector maps,
// no per-gate allocation in the hot loop. It has no Boolean evaluator of
// its own: EvalBool runs netcore's cone walk (netcore.Network.EvalWords,
// the walk that builds cone truth tables) over the batch columns for the
// golden rows. The inner kernels are plain loops over the batch's
// []uint64 words. On top of them it provides defect models (weight
// variation, threshold drift, stuck-at gate faults), a Monte-Carlo yield
// estimator with sequential early stopping, and a critical-gate ranking
// that attributes observed output failures to the first flipped gate on
// each failing lane. It is the repository's only simulator: threshold
// gates of every fanin run through it, the narrow ones via fire tables
// and the wide ones lane by lane. The map-based reference evaluators
// (network.Network.EvalOutputs, core.Network.EvalOutputs and
// core.Gate.EvalPerturbed) are its test oracle; property tests and
// FuzzThreshSim pin the packed paths to them bit for bit.
package fsim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"tels/internal/netcore"
	"tels/internal/truth"
)

// lanes is the number of vectors per 64-bit word: vector index v lives
// in bit v%64 of word v/64 of a flat row.
const lanes = 64

// ExhaustiveInputs is the widest network checked on all 2^n vectors;
// Vectors samples wider networks at random instead.
const ExhaustiveInputs = 14

// DefaultSamples is the random-vector sample size for networks wider
// than ExhaustiveInputs.
const DefaultSamples = 4096

// Batch is a set of packed input assignments: for every input, a flat row
// of uint64 words with vector index v living in bit v%64 of word v/64.
// The mask zeroes the unused lanes of the final partial word out of all
// comparisons and counts.
type Batch struct {
	inputs []string
	pos    map[string]int
	n      int
	words  [][]uint64 // [input][word]
	mask   []uint64   // [word] valid-lane mask
}

// newBatch allocates an empty batch for the inputs and vector count.
func newBatch(inputs []string, n int) *Batch {
	row := (n + lanes - 1) / lanes
	b := &Batch{
		inputs: append([]string(nil), inputs...),
		pos:    make(map[string]int, len(inputs)),
		n:      n,
		words:  make([][]uint64, len(inputs)),
		mask:   make([]uint64, row),
	}
	for i, name := range b.inputs {
		b.pos[name] = i
		b.words[i] = make([]uint64, row)
	}
	for wi := range b.mask {
		b.mask[wi] = ^uint64(0)
	}
	if rem := n % lanes; rem != 0 {
		b.mask[row-1] = (uint64(1) << uint(rem)) - 1
	}
	return b
}

// Len returns the number of vectors in the batch.
func (b *Batch) Len() int { return b.n }

// Words returns the row length in 64-bit words. Packed output and trace
// rows share it.
func (b *Batch) Words() int { return len(b.mask) }

// Inputs returns the input names, in column order.
func (b *Batch) Inputs() []string { return b.inputs }

// Vectors packs the vectors a check sweeps: all 2^n assignments when
// len(inputs) is at most ExhaustiveInputs, otherwise `samples` random
// vectors drawn from rng (see Random). Exhaustive batches leave rng
// untouched.
func Vectors(inputs []string, samples int, rng *rand.Rand) *Batch {
	if len(inputs) <= ExhaustiveInputs {
		return exhaustive(inputs)
	}
	return Random(inputs, samples, rng)
}

// exhaustive packs all 2^n assignments of the inputs: vector m assigns
// input i the value of bit i of m, so input i's row is the truth table of
// variable i (truth.Var). Below six inputs the one word's unused lanes
// are zero, and the mask hides them.
func exhaustive(inputs []string) *Batch {
	n := len(inputs)
	b := newBatch(inputs, 1<<uint(n))
	for i := range inputs {
		copy(b.words[i], truth.Var(n, i).Words())
	}
	return b
}

// Random packs n uniformly random assignments. It consumes rng
// vector-major, input-minor, one Intn(2) per bit, so a caller that knows
// the batch shape can replay or continue the stream (see
// YieldSession.EstimateFor).
func Random(inputs []string, n int, rng *rand.Rand) *Batch {
	b := newBatch(inputs, n)
	for v := 0; v < n; v++ {
		wi, bit := v/lanes, uint(v%lanes)
		for i := range inputs {
			if rng.Intn(2) == 1 {
				b.words[i][wi] |= uint64(1) << bit
			}
		}
	}
	return b
}

// Assignment reconstructs vector v as a name→value map (for error
// messages; never used in hot loops).
func (b *Batch) Assignment(v int) map[string]bool {
	out := make(map[string]bool, len(b.inputs))
	wi, bit := v/lanes, uint(v%lanes)
	for i, name := range b.inputs {
		out[name] = b.words[i][wi]>>bit&1 == 1
	}
	return out
}

// columns resolves the batch column of every name, erroring on inputs the
// batch does not carry.
func (b *Batch) columns(names []string) ([]int, error) {
	cols := make([]int, len(names))
	for i, name := range names {
		c, ok := b.pos[name]
		if !ok {
			return nil, fmt.Errorf("fsim: batch has no column for input %s", name)
		}
		cols[i] = c
	}
	return cols, nil
}

// EvalBool returns the Boolean network's packed outputs on the batch
// ([output][word]): netcore's cone walk over the batch columns of the
// network's inputs. The rows are copies the caller owns, also for an
// output that is an input or repeats another output.
func EvalBool(nw *netcore.Network, b *Batch) ([][]uint64, error) {
	names := make([]string, len(nw.Inputs()))
	for i, in := range nw.Inputs() {
		names[i] = nw.NetName(in)
	}
	cols, err := b.columns(names)
	if err != nil {
		return nil, err
	}
	rows := make([][]uint64, len(cols))
	for i, c := range cols {
		rows[i] = b.words[c]
	}
	out, err := nw.EvalWords(nw.Outputs(), nw.Inputs(), rows, b.Words())
	if err != nil {
		return nil, err
	}
	for o := range out {
		out[o] = append([]uint64(nil), out[o]...)
	}
	return out, nil
}

// FirstDiff locates the lowest (vector, output) pair where the two packed
// output sets disagree.
func (b *Batch) FirstDiff(a, c [][]uint64) (vec, out int, found bool) {
	bestVec, bestOut := -1, -1
	for o := range a {
		ao, co := a[o], c[o]
		for wi := range b.mask {
			d := (ao[wi] ^ co[wi]) & b.mask[wi]
			if d == 0 {
				continue
			}
			v := wi*lanes + bits.TrailingZeros64(d)
			if bestVec < 0 || v < bestVec {
				bestVec, bestOut = v, o
			}
			break // later words of this output can only be higher vectors
		}
	}
	if bestVec < 0 {
		return 0, 0, false
	}
	return bestVec, bestOut, true
}

// Bit extracts output word bit v for packed rows shaped [word].
func Bit(row []uint64, v int) bool {
	return row[v/lanes]>>uint(v%lanes)&1 == 1
}
