package fsim

import (
	"fmt"
	"math/bits"

	"tels/internal/core"
)

// tableFanin is the widest gate evaluated through a fire table: each
// table holds 2^k minterm bits, so the bound caps the per-gate scratch at
// 4096 minterm masks. Networks synthesized under the paper's fanin
// restriction (ψ ≤ 8) stay below it; a wider gate has no table and is
// evaluated lane by lane instead (see evalWith).
const tableFanin = 12

// fireTable is the packed truth table of one gate under one weight
// assignment: bit m is the gate output on input minterm m (bit i of m is
// the value of gate input i). The table is indexed by minterm, not by
// vector, so it stays a plain uint64 bitset at every lane width. ones
// counts the set bits so evaluation can OR whichever of the ON or OFF
// minterm sets is smaller.
type fireTable struct {
	bits []uint64
	ones int
}

func newFireTable(k int) fireTable {
	return fireTable{bits: make([]uint64, (1<<uint(k)+lanes-1)/lanes)}
}

func (ft *fireTable) set(m int) {
	ft.bits[m/lanes] |= uint64(1) << uint(m%lanes)
	ft.ones++
}

func (ft *fireTable) clear() {
	for i := range ft.bits {
		ft.bits[i] = 0
	}
	ft.ones = 0
}

// pGate is one compiled threshold gate.
type pGate struct {
	g    *core.Gate
	ins  []int // fanin value slots
	slot int   // output value slot
}

// ThreshSim evaluates a threshold network one 64-vector word at a time,
// under exact weights (Eval), Monte-Carlo weight noise (EvalPerturbed),
// or a general Defect (EvalDefect), for gates of any fanin. Compile once,
// evaluate many batches; not safe for concurrent use.
type ThreshSim struct {
	tn       *core.Network
	inputs   []string
	inSlots  []int
	gates    []pGate
	outSlots []int

	vals []uint64    // [slot], rewritten per word
	mts  []uint64    // the minterm masks of one table gate
	out  [][]uint64  // [output][word], reused across calls
	base []fireTable // exact-weight tables, built at compile time
	work []fireTable // rebuilt per perturbed/defect evaluation
}

// CompileThresh prepares the packed evaluator. Gate gi is tn.Gates[gi],
// so noise slices are aligned with tn.Gates, which is topological.
func CompileThresh(tn *core.Network) (*ThreshSim, error) {
	s := &ThreshSim{tn: tn}
	slot := make(map[string]int, len(tn.Inputs)+len(tn.Gates))
	for _, in := range tn.Inputs {
		slot[in] = len(slot)
		s.inputs = append(s.inputs, in)
		s.inSlots = append(s.inSlots, slot[in])
	}
	maxFanin := 0
	for _, g := range tn.Gates {
		if k := len(g.Inputs); k > maxFanin && k <= tableFanin {
			maxFanin = k
		}
		slot[g.Name] = len(slot)
	}
	s.vals = make([]uint64, len(slot))
	s.mts = make([]uint64, 1<<uint(maxFanin))
	s.base = make([]fireTable, len(tn.Gates))
	s.work = make([]fireTable, len(tn.Gates))
	for gi, g := range tn.Gates {
		pg := pGate{g: g, slot: slot[g.Name]}
		for _, in := range g.Inputs {
			pg.ins = append(pg.ins, slot[in])
		}
		s.gates = append(s.gates, pg)
		if len(g.Inputs) <= tableFanin {
			// The exact table is read-only, so it keeps the gate's
			// truth table words.
			tt := g.Truth()
			s.base[gi] = fireTable{bits: tt.Words(), ones: tt.CountOnes()}
			s.work[gi] = newFireTable(len(g.Inputs))
		}
	}
	for _, o := range tn.Outputs {
		os, ok := slot[o]
		if !ok {
			return nil, fmt.Errorf("fsim: output %s is undriven", o)
		}
		s.outSlots = append(s.outSlots, os)
	}
	s.out = make([][]uint64, len(s.outSlots))
	return s, nil
}

// fillNoisyFire enumerates the truth table under real-valued weight noise
// and threshold drift. The per-minterm sum accumulates float64 terms in
// ascending input order — exactly the association of the scalar
// reference core.Gate.EvalPerturbed — so packed and scalar agree bit for
// bit even on razor-edge sums.
func fillNoisyFire(g *core.Gate, noise []float64, drift float64, ft *fireTable) {
	ft.clear()
	t := float64(g.T) + drift
	for m := 0; m < 1<<uint(len(g.Inputs)); m++ {
		sum := 0.0
		for i, w := range g.Weights {
			if m>>uint(i)&1 == 1 {
				if noise != nil {
					sum += float64(w) + noise[i]
				} else {
					sum += float64(w)
				}
			}
		}
		if sum >= t {
			ft.set(m)
		}
	}
}

// gateNoise returns gate gi's weight offsets (nil when the defect has
// none) and threshold drift.
func (d *Defect) gateNoise(gi int) (noise []float64, drift float64) {
	if d.WeightNoise != nil {
		noise = d.WeightNoise[gi]
	}
	if d.ThresholdNoise != nil {
		drift = d.ThresholdNoise[gi]
	}
	return noise, drift
}

// Eval computes the packed outputs under the exact integer weights.
func (s *ThreshSim) Eval(b *Batch) ([][]uint64, error) {
	return s.EvalDefect(b, nil, nil)
}

// EvalPerturbed computes the packed outputs with per-gate weight noise
// (noise[gi] aligned with tn.Gates[gi].Weights), the w' = w +
// v·U(−0.5,0.5) model of §VI-C.
func (s *ThreshSim) EvalPerturbed(b *Batch, noise [][]float64) ([][]uint64, error) {
	return s.EvalDefect(b, &Defect{WeightNoise: noise}, nil)
}

// EvalDefect computes the packed outputs under a defect instance (nil for
// none), writing per-gate output words into trace ([gate][word], rows at
// least b.Words() long) when trace is non-nil.
func (s *ThreshSim) EvalDefect(b *Batch, d *Defect, trace [][]uint64) ([][]uint64, error) {
	if d == nil {
		d = &Defect{}
	}
	tabs := s.base
	if d.WeightNoise != nil || d.ThresholdNoise != nil {
		tabs = s.work
		for gi, pg := range s.gates {
			if len(pg.ins) <= tableFanin {
				noise, drift := d.gateNoise(gi)
				fillNoisyFire(pg.g, noise, drift, &s.work[gi])
			}
		}
	}
	return s.evalWith(b, tabs, d, trace)
}

// evalWith is the packed inner loop: per word, load the inputs, evaluate
// every gate, and collect the outputs. A gate of at most tableFanin
// inputs goes through its fire table over an incrementally doubled
// minterm-mask array; a wider gate is summed lane by lane (sumFire).
func (s *ThreshSim) evalWith(b *Batch, tabs []fireTable, d *Defect, trace [][]uint64) ([][]uint64, error) {
	cols, err := b.columns(s.inputs)
	if err != nil {
		return nil, err
	}
	row := b.Words()
	for o := range s.out {
		if cap(s.out[o]) < row {
			s.out[o] = make([]uint64, row)
		}
		s.out[o] = s.out[o][:row]
	}
	vals, mts, stuck := s.vals, s.mts, d.Stuck
	for wi := 0; wi < row; wi++ {
		for i, slot := range s.inSlots {
			vals[slot] = b.words[cols[i]][wi]
		}
		for gi := range s.gates {
			pg := &s.gates[gi]
			var acc uint64
			if stuck != nil && stuck[gi] >= 0 {
				if stuck[gi] == 1 {
					acc = ^uint64(0)
				}
			} else if len(pg.ins) > tableFanin {
				acc = sumFire(pg, vals, d, gi)
			} else {
				// Build the 2^k minterm masks by recursive doubling,
				// processing fanins in reverse so input i lands at
				// index bit i: each pass splits every existing mask on
				// one input word, costing ~2·2^k word ops total.
				mts[0] = ^uint64(0)
				size := 1
				for i := len(pg.ins) - 1; i >= 0; i-- {
					w := vals[pg.ins[i]]
					for j := size - 1; j >= 0; j-- {
						t := mts[j]
						mts[2*j+1] = t & w
						mts[2*j] = t &^ w
					}
					size <<= 1
				}
				// OR the smaller of the ON/OFF minterm sets; the
				// minterm masks partition the lanes, so the OFF union
				// is the exact complement of the ON union.
				ft := &tabs[gi]
				invert := 2*ft.ones > size
				for fi := 0; fi*lanes < size; fi++ {
					fw := ft.bits[fi]
					if invert {
						fw = ^fw
					}
					if rem := size - fi*lanes; rem < lanes {
						fw &= uint64(1)<<uint(rem) - 1
					}
					for fw != 0 {
						acc |= mts[fi*lanes+bits.TrailingZeros64(fw)]
						fw &= fw - 1
					}
				}
				if invert {
					acc = ^acc
				}
			}
			vals[pg.slot] = acc
			if trace != nil {
				trace[gi][wi] = acc
			}
		}
		for o, slot := range s.outSlots {
			s.out[o][wi] = vals[slot]
		}
	}
	return s.out, nil
}

// sumFire evaluates one word of a gate too wide for a fire table: every
// lane adds the weights of its set inputs in ascending input order and
// compares the sum with T (plus drift). Exact weights sum as integers,
// noisy ones as float64 terms w + noise — the sums core.Gate.Truth and
// fillNoisyFire form, so both paths agree bit for bit.
func sumFire(pg *pGate, vals []uint64, d *Defect, gi int) uint64 {
	g := pg.g
	var acc uint64
	if d.WeightNoise == nil && d.ThresholdNoise == nil {
		var sums [lanes]int
		for i, in := range pg.ins {
			for w := vals[in]; w != 0; w &= w - 1 {
				sums[bits.TrailingZeros64(w)] += g.Weights[i]
			}
		}
		for l, sum := range sums {
			if sum >= g.T {
				acc |= uint64(1) << uint(l)
			}
		}
		return acc
	}
	noise, drift := d.gateNoise(gi)
	var sums [lanes]float64
	for i, in := range pg.ins {
		x := float64(g.Weights[i])
		if noise != nil {
			x += noise[i]
		}
		for w := vals[in]; w != 0; w &= w - 1 {
			sums[bits.TrailingZeros64(w)] += x
		}
	}
	t := float64(g.T) + drift
	for l, sum := range sums {
		if sum >= t {
			acc |= uint64(1) << uint(l)
		}
	}
	return acc
}
