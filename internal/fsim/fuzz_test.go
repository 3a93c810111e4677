package fsim

import (
	"fmt"
	"testing"

	"tels/internal/core"
)

// fuzzReader hands out the fuzz input one byte at a time, zeros once it
// runs dry, so every input decodes to some network.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// decodeThreshCase turns bytes into a threshold network of 1–8 inputs and
// 1–4 gates of fanin 1–20 (inputs drawn with repetition from the earlier
// signals, so a gate may exceed tableFanin), plus a defect. Layout: input
// count, gate count, then per gate its fanin, threshold and (input,
// weight) pairs; a flags byte (1 weight noise, 2 threshold drift, 4
// stuck gates); an extra output; then the defect values in sixteenths.
func decodeThreshCase(data []byte) (*core.Network, *Defect) {
	r := fuzzReader(data)
	tn := core.NewNetwork("fuzz")
	var signals []string
	for i, n := 0, 1+int(r.next()%8); i < n; i++ {
		name := fmt.Sprintf("x%d", i)
		tn.AddInput(name)
		signals = append(signals, name)
	}
	for gi, gates := 0, 1+int(r.next()%4); gi < gates; gi++ {
		k := 1 + int(r.next()%20)
		g := &core.Gate{Name: fmt.Sprintf("g%d", gi), T: int(int8(r.next())) % 8}
		for i := 0; i < k; i++ {
			g.Inputs = append(g.Inputs, signals[int(r.next())%len(signals)])
			g.Weights = append(g.Weights, int(int8(r.next()))%5)
		}
		if err := tn.AddGate(g); err != nil {
			panic(err)
		}
		signals = append(signals, g.Name)
	}
	flags := r.next()
	tn.MarkOutput(signals[len(signals)-1])
	tn.MarkOutput(signals[int(r.next())%len(signals)])

	d := &Defect{}
	if flags&1 != 0 {
		for _, g := range tn.Gates {
			noise := make([]float64, len(g.Weights))
			for i := range noise {
				noise[i] = float64(int8(r.next())) / 16
			}
			d.WeightNoise = append(d.WeightNoise, noise)
		}
	}
	if flags&2 != 0 {
		for range tn.Gates {
			d.ThresholdNoise = append(d.ThresholdNoise, float64(int8(r.next()))/16)
		}
	}
	if flags&4 != 0 {
		for range tn.Gates {
			d.Stuck = append(d.Stuck, int8(r.next()%3)-1)
		}
	}
	return tn, d
}

// threshSeed encodes a FuzzThreshSim input with n inputs and one gate
// per fanin (threshold half the fanin, inputs cycling over the earlier
// signals, weights 1, 2, -1 in turn) under the defect kinds in flags,
// every defect value a half.
func threshSeed(n byte, flags byte, fanins ...byte) []byte {
	out := []byte{n - 1, byte(len(fanins) - 1)}
	signals := int(n)
	for _, k := range fanins {
		out = append(out, k-1, k/2)
		for i := 0; i < int(k); i++ {
			out = append(out, byte(i%signals), []byte{1, 2, 0xff}[i%3])
		}
		signals++
	}
	out = append(out, flags, 0)
	for i := 0; i < 64; i++ {
		out = append(out, 8) // 8/16 = 0.5
	}
	return out
}

// FuzzThreshSim checks EvalDefect — outputs and every trace row — against
// the scalar reference scalarDefect on all 2^n vectors of a decoded
// network and defect. The seeds put gates on both sides of tableFanin
// under each defect kind; run `go test -fuzz FuzzThreshSim
// ./internal/fsim` to explore.
func FuzzThreshSim(f *testing.F) {
	f.Add(threshSeed(6, 0, 3, 13))
	f.Add(threshSeed(6, 1, 12, 13))
	f.Add(threshSeed(8, 2, 20, 4))
	f.Add(threshSeed(5, 4, 13, 20, 2))
	f.Add(threshSeed(7, 7, 14, 12, 16, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		tn, d := decodeThreshCase(data)
		sim, err := CompileThresh(tn)
		if err != nil {
			t.Fatal(err)
		}
		batch := exhaustive(tn.Inputs)
		trace := makeTrace(len(tn.Gates), batch.Words())
		got, err := sim.EvalDefect(batch, d, trace)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < batch.Len(); m++ {
			outs, gates := scalarDefect(sim, d, batch.Assignment(m))
			for o := range outs {
				if Bit(got[o], m) != outs[o] {
					t.Fatalf("vector %d output %d: packed=%v scalar=%v", m, o, Bit(got[o], m), outs[o])
				}
			}
			for gi := range gates {
				if Bit(trace[gi], m) != gates[gi] {
					t.Fatalf("vector %d gate %s: trace=%v scalar=%v",
						m, tn.Gates[gi].Name, Bit(trace[gi], m), gates[gi])
				}
			}
		}
	})
}
