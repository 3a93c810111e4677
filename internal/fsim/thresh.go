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
// evaluated lane by lane instead (see evalGate).
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

// block is the word length of one evaluation block. Without a trace the
// gate rows live in a scratch of gates × block words, which stays
// cache-resident however long the batch.
const block = 32

// pGate is one compiled threshold gate.
type pGate struct {
	g    *core.Gate
	ins  []int // fanin value slots
	slot int   // output value slot
}

// ThreshSim evaluates a threshold network gate-major: one gate at a time,
// in topological order, over its whole row of 64-vector words, under
// exact weights (Eval), Monte-Carlo weight noise (EvalPerturbed), or a
// general Defect (EvalDefect), for gates of any fanin. Compile once,
// evaluate many batches; not safe for concurrent use.
type ThreshSim struct {
	tn       *core.Network
	inputs   []string
	inSlots  []int
	gates    []pGate
	outSlots []int
	weights  int // total gate fanin: the length of one weight-noise draw

	rows    [][]uint64  // [slot] the row of each signal, rewritten per block
	scratch []uint64    // [gate·block + word] gate rows when there is no trace
	mts     []uint64    // the minterm masks of one table gate
	out     [][]uint64  // [output][word], reused across calls
	base    []fireTable // exact-weight tables, built at compile time
	work    []fireTable // rebuilt per perturbed/defect evaluation
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
		s.weights += len(g.Weights)
		slot[g.Name] = len(slot)
	}
	s.rows = make([][]uint64, len(slot))
	s.scratch = make([]uint64, len(tn.Gates)*block)
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
	return s.evalWith(b, s.tables(d), d, trace)
}

// tables returns the fire tables of a defect: the exact-weight tables, or
// the work tables refilled under its weight noise and threshold drift.
func (s *ThreshSim) tables(d *Defect) []fireTable {
	if d.WeightNoise == nil && d.ThresholdNoise == nil {
		return s.base
	}
	for gi, pg := range s.gates {
		if len(pg.ins) <= tableFanin {
			noise, drift := d.gateNoise(gi)
			fillNoisyFire(pg.g, noise, drift, &s.work[gi])
		}
	}
	return s.work
}

// evalWith is the packed inner loop. It runs gate-major over blocks of
// block words: in each block, every gate in Gates order is evaluated over
// its whole row, reading the rows of its inputs (batch columns or rows of
// earlier gates). Gate gi's row is written straight into trace[gi] when
// there is a trace, into the scratch otherwise. Gate rows never alias a
// batch column, and the output rows are copies in s.out.
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
	for lo := 0; lo < row; lo += block {
		hi := min(lo+block, row)
		for i, slot := range s.inSlots {
			s.rows[slot] = b.words[cols[i]][lo:hi]
		}
		for gi := range s.gates {
			var dst []uint64
			if trace != nil {
				dst = trace[gi][lo:hi]
			} else {
				dst = s.scratch[gi*block : gi*block+hi-lo]
			}
			s.evalGate(gi, tabs, d, dst)
			s.rows[s.gates[gi].slot] = dst
		}
		for o, slot := range s.outSlots {
			copy(s.out[o][lo:hi], s.rows[slot])
		}
	}
	return s.out, nil
}

// evalGate writes gate gi's row into dst from the rows of its inputs. A
// stuck gate fills its row. A gate of at most three inputs is a
// branch-free Shannon mux over its fire table: each table bit becomes an
// all-zeros or all-ones word, and each input selects between cofactors
// (x0 ^ (x0^x1)&sel), 17 word ops per row word at three inputs. A gate of
// up to tableFanin inputs ORs minterm masks per word (mintermRow); a wider
// gate is summed lane by lane (sumFire).
func (s *ThreshSim) evalGate(gi int, tabs []fireTable, d *Defect, dst []uint64) {
	if d.Stuck != nil && d.Stuck[gi] >= 0 {
		var fill uint64
		if d.Stuck[gi] == 1 {
			fill = ^uint64(0)
		}
		for wi := range dst {
			dst[wi] = fill
		}
		return
	}
	pg := &s.gates[gi]
	k := len(pg.ins)
	if k > tableFanin {
		for wi := range dst {
			dst[wi] = sumFire(pg, s.rows, wi, d, gi)
		}
		return
	}
	if k > 3 {
		s.mintermRow(pg, &tabs[gi], dst)
		return
	}
	// c(m) is table bit m spread over a word.
	t := tabs[gi].bits[0]
	c := func(m uint) uint64 { return -(t >> m & 1) }
	switch k {
	case 0:
		c0 := c(0)
		for wi := range dst {
			dst[wi] = c0
		}
	case 1:
		a := s.rows[pg.ins[0]][:len(dst)]
		c0, x01 := c(0), c(0)^c(1)
		for wi := range dst {
			dst[wi] = c0 ^ x01&a[wi]
		}
	case 2:
		a := s.rows[pg.ins[0]][:len(dst)]
		b := s.rows[pg.ins[1]][:len(dst)]
		c0, x01 := c(0), c(0)^c(1)
		c2, x23 := c(2), c(2)^c(3)
		for wi := range dst {
			u0 := c0 ^ x01&a[wi]
			u1 := c2 ^ x23&a[wi]
			dst[wi] = u0 ^ (u0^u1)&b[wi]
		}
	case 3:
		a := s.rows[pg.ins[0]][:len(dst)]
		b := s.rows[pg.ins[1]][:len(dst)]
		e := s.rows[pg.ins[2]][:len(dst)]
		c0, x01 := c(0), c(0)^c(1)
		c2, x23 := c(2), c(2)^c(3)
		c4, x45 := c(4), c(4)^c(5)
		c6, x67 := c(6), c(6)^c(7)
		for wi := range dst {
			aw, bw := a[wi], b[wi]
			u0 := c0 ^ x01&aw
			u1 := c2 ^ x23&aw
			u2 := c4 ^ x45&aw
			u3 := c6 ^ x67&aw
			v0 := u0 ^ (u0^u1)&bw
			v1 := u2 ^ (u2^u3)&bw
			dst[wi] = v0 ^ (v0^v1)&e[wi]
		}
	}
}

// mintermRow evaluates a table gate word by word: it builds the 2^k
// minterm masks of the word by recursive doubling, processing fanins in
// reverse so input i lands at index bit i (each pass splits every mask on
// one input word, ~2·2^k word ops in all), then ORs the masks of the
// smaller of the ON/OFF minterm sets. The masks partition the lanes, so
// the OFF union is the exact complement of the ON union.
func (s *ThreshSim) mintermRow(pg *pGate, ft *fireTable, dst []uint64) {
	mts := s.mts
	size := 1 << uint(len(pg.ins))
	invert := 2*ft.ones > size
	for wi := range dst {
		mts[0] = ^uint64(0)
		n := 1
		for i := len(pg.ins) - 1; i >= 0; i-- {
			w := s.rows[pg.ins[i]][wi]
			for j := n - 1; j >= 0; j-- {
				t := mts[j]
				mts[2*j+1] = t & w
				mts[2*j] = t &^ w
			}
			n <<= 1
		}
		var acc uint64
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
		dst[wi] = acc
	}
}

// sumFire evaluates word wi of a gate too wide for a fire table: every
// lane adds the weights of its set inputs in ascending input order and
// compares the sum with T (plus drift). Exact weights sum as integers,
// noisy ones as float64 terms w + noise — the sums core.Gate.Truth and
// fillNoisyFire form, so both paths agree bit for bit.
func sumFire(pg *pGate, rows [][]uint64, wi int, d *Defect, gi int) uint64 {
	g := pg.g
	var acc uint64
	if d.WeightNoise == nil && d.ThresholdNoise == nil {
		var sums [lanes]int
		for i, in := range pg.ins {
			for w := rows[in][wi]; w != 0; w &= w - 1 {
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
		for w := rows[in][wi]; w != 0; w &= w - 1 {
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
