package fsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tels/internal/core"
)

// evalWordMajor is the word-major evaluator the gate-major kernel
// replaced, kept as its oracle: per 64-vector word it loads the inputs,
// evaluates every gate in Gates order — fire-table gates by ORing
// minterm masks, wider gates by sumFire — and collects the outputs. It
// returns fresh output rows and fills trace rows like evalWith.
func evalWordMajor(s *ThreshSim, b *Batch, tabs []fireTable, d *Defect, trace [][]uint64) ([][]uint64, error) {
	cols, err := b.columns(s.inputs)
	if err != nil {
		return nil, err
	}
	row := b.Words()
	out := make([][]uint64, len(s.outSlots))
	for o := range out {
		out[o] = make([]uint64, row)
	}
	vals := make([]uint64, len(s.rows))
	rows := make([][]uint64, len(vals))
	for i := range vals {
		rows[i] = vals[i : i+1]
	}
	mts := make([]uint64, len(s.mts))
	stuck := d.Stuck
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
				acc = sumFire(pg, rows, 0, d, gi)
			} else {
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
			out[o][wi] = vals[slot]
		}
	}
	return out, nil
}

// estimateWordMajor is the trial loop over evalWordMajor with the
// word-major blame attribution the gate-by-gate sweep replaced: per
// failing word, the gates are visited in topological order and each
// failing lane is blamed on the first gate that flipped it.
func estimateWordMajor(s *YieldSession, tsim *ThreshSim, model DefectModel, cfg YieldConfig, rng *rand.Rand) (*YieldReport, error) {
	batch, golden := s.batch, s.golden
	gates := tsim.tn.Gates
	cleanTrace := makeTrace(len(gates), batch.Words())
	if _, err := evalWordMajor(tsim, batch, tsim.base, &Defect{}, cleanTrace); err != nil {
		return nil, err
	}
	badTrace := makeTrace(len(gates), batch.Words())
	blamed := make([]int, len(gates))
	flipped := make([]int, len(gates))
	rep := &YieldReport{Model: model.Name(), Vectors: batch.Len()}
	for rep.Trials < cfg.MaxTrials {
		d := model.Draw(tsim, rng)
		out, err := evalWordMajor(tsim, batch, tsim.tables(d), d, badTrace)
		if err != nil {
			return nil, err
		}
		rep.Trials++
		failedTrial := false
		for wi := range batch.mask {
			var fail uint64
			for o := range out {
				fail |= out[o][wi] ^ golden[o][wi]
			}
			fail &= batch.mask[wi]
			if fail == 0 {
				continue
			}
			failedTrial = true
			remaining := fail
			for gi := range gates {
				flip := (cleanTrace[gi][wi] ^ badTrace[gi][wi]) & batch.mask[wi]
				if flip == 0 {
					continue
				}
				flipped[gi] += bits.OnesCount64(flip & fail)
				if hit := flip & remaining; hit != 0 {
					blamed[gi] += bits.OnesCount64(hit)
					remaining &^= hit
				}
			}
		}
		if failedTrial {
			rep.Failures++
		}
		lo, hi := wilson(rep.Failures, rep.Trials, yieldZ)
		if rep.Trials >= cfg.MinTrials && (hi-lo)/2 <= cfg.HalfWidth {
			rep.EarlyStopped = rep.Trials < cfg.MaxTrials
			break
		}
	}
	rep.FailureRate = float64(rep.Failures) / float64(rep.Trials)
	rep.Yield = 1 - rep.FailureRate
	rep.Lo, rep.Hi = wilson(rep.Failures, rep.Trials, yieldZ)
	for gi, g := range gates {
		if blamed[gi] == 0 && flipped[gi] == 0 {
			continue
		}
		rep.Critical = append(rep.Critical, GateImpact{Gate: g.Name, Blamed: blamed[gi], Flipped: flipped[gi]})
	}
	sort.Slice(rep.Critical, func(i, j int) bool {
		a, b := rep.Critical[i], rep.Critical[j]
		if a.Blamed != b.Blamed {
			return a.Blamed > b.Blamed
		}
		if a.Flipped != b.Flipped {
			return a.Flipped > b.Flipped
		}
		return a.Gate < b.Gate
	})
	return rep, nil
}

// rowKernelNet builds a random threshold network over n inputs whose
// gates cover every kernel path: fanin 0, 1, 2 and 3 (the mux cases),
// 4–12 (minterm masks) and 13–20 (lane sums), in random order after one
// of each. Fanins are drawn with repetition from the earlier signals, and
// a primary input drives one of the outputs.
func rowKernelNet(rng *rand.Rand, n int) *core.Network {
	tn := core.NewNetwork("row")
	var signals []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("x%d", i)
		tn.AddInput(name)
		signals = append(signals, name)
	}
	fanin := func(class int) int {
		switch class {
		case 4:
			return 4 + rng.Intn(tableFanin-3)
		case 5:
			return tableFanin + 1 + rng.Intn(8)
		}
		return class
	}
	gates := 6 + rng.Intn(10)
	for i := 0; i < gates; i++ {
		class := i
		if i >= 6 {
			class = rng.Intn(6)
		}
		g := &core.Gate{Name: fmt.Sprintf("g%d", i), T: rng.Intn(7) - 2}
		for k := fanin(class); len(g.Inputs) < k; {
			g.Inputs = append(g.Inputs, signals[rng.Intn(len(signals))])
			g.Weights = append(g.Weights, rng.Intn(7)-3)
		}
		if err := tn.AddGate(g); err != nil {
			panic(err)
		}
		signals = append(signals, g.Name)
	}
	tn.MarkOutput(signals[len(signals)-1])
	tn.MarkOutput(signals[rng.Intn(len(signals))])
	tn.MarkOutput(signals[rng.Intn(n)])
	return tn
}

// mixedDefects draws weight noise, threshold drift and stuck gates at
// once, so one defect exercises every fault kind of the kernel.
type mixedDefects struct{}

func (mixedDefects) Name() string { return "mixed" }

func (mixedDefects) Draw(s *ThreshSim, rng *rand.Rand) *Defect {
	d := WeightVariation{V: 1.5}.Draw(s, rng)
	d.ThresholdNoise = ThresholdDrift{V: 1}.Draw(s, rng).ThresholdNoise
	d.Stuck = StuckAt{P: 0.2}.Draw(s, rng).Stuck
	return d
}

// kernelModels are the defect models the oracle tests draw from.
var kernelModels = []DefectModel{
	WeightVariation{V: 0.8}, WeightVariation{V: 2},
	ThresholdDrift{V: 1.5}, StuckAt{P: 0.1}, mixedDefects{},
}

// TestRowKernelMatchesWordMajor checks the gate-major kernel against the
// word-major oracle, output rows and every trace word, with and without
// a trace, on exhaustive batches and on random batches of 1, 63, 65, 130
// and 300 vectors plus one spanning more than two blocks, under exact
// weights and every defect model.
func TestRowKernelMatchesWordMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := append(append([]int(nil), propertySizes...), 2*block*lanes+65)
	for trial := 0; trial < 40; trial++ {
		tn := rowKernelNet(rng, 1+rng.Intn(9))
		sim, err := CompileThresh(tn)
		if err != nil {
			t.Fatal(err)
		}
		batches := []*Batch{exhaustive(tn.Inputs)}
		for _, n := range sizes {
			batches = append(batches, Random(tn.Inputs, n, rng))
		}
		defects := []*Defect{{}}
		for _, m := range kernelModels {
			defects = append(defects, m.Draw(sim, rng))
		}
		for _, batch := range batches {
			for di, d := range defects {
				at := fmt.Sprintf("trial %d, %d vectors, defect %d", trial, batch.Len(), di)
				wantTrace := makeTrace(len(tn.Gates), batch.Words())
				want, err := evalWordMajor(sim, batch, sim.tables(d), d, wantTrace)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.EvalDefect(batch, d, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, no trace: outputs differ from the word-major oracle", at)
				}
				trace := makeTrace(len(tn.Gates), batch.Words())
				if got, err = sim.EvalDefect(batch, d, trace); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, traced: outputs differ from the word-major oracle", at)
				}
				for gi := range trace {
					if !reflect.DeepEqual(trace[gi], wantTrace[gi]) {
						t.Fatalf("%s: trace row of gate %s differs from the word-major oracle", at, tn.Gates[gi].Name)
					}
				}
			}
		}
	}
}

// TestYieldMatchesWordMajor requires whole yield reports — counts,
// interval, early stop and the critical-gate ranking — equal to the
// word-major trial loop's, on random networks under every defect model.
// Some golden rows get flipped bits, so clean lanes fail as well.
func TestYieldMatchesWordMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 16; trial++ {
		tn := rowKernelNet(rng, 1+rng.Intn(9))
		sim, err := CompileThresh(tn)
		if err != nil {
			t.Fatal(err)
		}
		batch := exhaustive(tn.Inputs)
		if trial%2 == 1 {
			batch = Random(tn.Inputs, 1+rng.Intn(2*block*lanes), rng)
		}
		clean, err := sim.Eval(batch)
		if err != nil {
			t.Fatal(err)
		}
		golden := make([][]uint64, len(clean))
		for o := range clean {
			golden[o] = append([]uint64(nil), clean[o]...)
			if trial%3 == 0 {
				golden[o][rng.Intn(len(golden[o]))] ^= rng.Uint64()
			}
		}
		s := &YieldSession{tn: tn, batch: batch, golden: golden}
		for mi, model := range kernelModels {
			cfg := YieldConfig{MaxTrials: 20 + rng.Intn(40), HalfWidth: 0.1}.withDefaults()
			seed := rng.Int63()
			tsim, err := CompileThresh(tn)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.estimate(tsim, model, cfg, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := estimateWordMajor(s, sim, model, cfg, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, model %d (%s), %d vectors: report\n%+v\nwant\n%+v",
					trial, mi, model.Name(), batch.Len(), got, want)
			}
		}
	}
}
