package fsim

import (
	"fmt"
	"math/rand"
	"testing"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/netcore"
	"tels/internal/network"
)

// randomBoolNet builds a random DAG of SOP nodes over n inputs. About one
// node in six is a constant with no fanins, and about one network in
// three has a primary input among its outputs.
func randomBoolNet(rng *rand.Rand, n int) *network.Network {
	nw := network.New("rand")
	var signals []*network.Node
	for i := 0; i < n; i++ {
		signals = append(signals, nw.AddInput(fmt.Sprintf("x%d", i)))
	}
	nodes := 2 + rng.Intn(8)
	for i := 0; i < nodes; i++ {
		if rng.Intn(6) == 0 {
			cover := logic.Zero(0)
			if rng.Intn(2) == 0 {
				cover = logic.One(0)
			}
			signals = append(signals, nw.AddNode(fmt.Sprintf("n%d", i), nil, cover))
			continue
		}
		k := 1 + rng.Intn(3)
		if k > len(signals) {
			k = len(signals)
		}
		fanins := make([]*network.Node, 0, k)
		seen := map[int]bool{}
		for len(fanins) < k {
			j := rng.Intn(len(signals))
			if seen[j] {
				continue
			}
			seen[j] = true
			fanins = append(fanins, signals[j])
		}
		cubes := make([]string, 1+rng.Intn(3))
		for c := range cubes {
			s := make([]byte, k)
			for p := range s {
				s[p] = "01-"[rng.Intn(3)]
			}
			cubes[c] = string(s)
		}
		node := nw.AddNode(fmt.Sprintf("n%d", i), fanins, logic.MustCover(cubes...))
		signals = append(signals, node)
	}
	// Mark a few nodes (possibly inputs) as outputs, at least one.
	outs := 1 + rng.Intn(3)
	for i := 0; i < outs; i++ {
		nw.MarkOutput(signals[rng.Intn(len(signals))])
	}
	if rng.Intn(3) == 0 {
		nw.MarkOutput(signals[rng.Intn(n)])
	}
	return nw
}

// randomThreshNet builds a random threshold-gate DAG over n inputs. About
// one gate in six is wider than tableFanin (fanin 13–20, inputs drawn
// with repetition), so the property tests cover the lane-by-lane path
// next to the fire tables.
func randomThreshNet(rng *rand.Rand, n int) *core.Network {
	tn := core.NewNetwork("rand")
	var signals []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("x%d", i)
		tn.AddInput(name)
		signals = append(signals, name)
	}
	gates := 2 + rng.Intn(8)
	for i := 0; i < gates; i++ {
		g := &core.Gate{Name: fmt.Sprintf("g%d", i), T: rng.Intn(7) - 2}
		if rng.Intn(6) == 0 {
			k := tableFanin + 1 + rng.Intn(8)
			for len(g.Inputs) < k {
				g.Inputs = append(g.Inputs, signals[rng.Intn(len(signals))])
				g.Weights = append(g.Weights, rng.Intn(7)-3)
			}
		} else {
			k := min(1+rng.Intn(4), len(signals))
			seen := map[int]bool{}
			for len(g.Inputs) < k {
				j := rng.Intn(len(signals))
				if seen[j] {
					continue
				}
				seen[j] = true
				g.Inputs = append(g.Inputs, signals[j])
				g.Weights = append(g.Weights, rng.Intn(7)-3)
			}
		}
		if err := tn.AddGate(g); err != nil {
			panic(err)
		}
		signals = append(signals, g.Name)
	}
	tn.MarkOutput(signals[len(signals)-1])
	tn.MarkOutput(signals[rng.Intn(len(signals))])
	return tn
}

// propertySizes are the random batch sizes the property tests add to the
// exhaustive batch: a single vector, a partial word, and multi-word
// batches whose last word is partial.
var propertySizes = []int{1, 63, 65, 130, 300}

// propertyBatches returns the exhaustive batch over inputs followed by
// one random batch of each propertySizes size.
func propertyBatches(t *testing.T, rng *rand.Rand, inputs []string) []*Batch {
	t.Helper()
	out := []*Batch{exhaustive(inputs)}
	for _, n := range propertySizes {
		out = append(out, Random(inputs, n, rng))
	}
	return out
}

// TestExhaustiveBatchLayout pins the packing convention: vector m assigns
// input i the value of bit i of m. Below six inputs the batch is one
// word whose unused lanes are masked off and zero in every row.
func TestExhaustiveBatchLayout(t *testing.T) {
	for _, n := range []int{0, 1, 5, 6, 8} {
		inputs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}[:n]
		b := exhaustive(inputs)
		if b.Len() != 1<<n || b.Words() != (1<<n+63)/64 {
			t.Fatalf("n=%d: len=%d words=%d", n, b.Len(), b.Words())
		}
		if n < 6 {
			if want := uint64(1)<<(1<<n) - 1; b.mask[0] != want {
				t.Fatalf("n=%d: mask %#x, want %#x", n, b.mask[0], want)
			}
			for i, row := range b.words {
				if row[0]&^b.mask[0] != 0 {
					t.Fatalf("n=%d: input %s sets unused lanes %#x", n, inputs[i], row[0]&^b.mask[0])
				}
			}
		}
		for m := 0; m < b.Len(); m++ {
			got := b.Assignment(m)
			for i, name := range inputs {
				want := m>>uint(i)&1 == 1
				if got[name] != want {
					t.Fatalf("n=%d: vector %d input %s = %v, want %v", n, m, name, got[name], want)
				}
			}
		}
	}
}

// TestRandomBatchMatchesScalarStream pins Random's RNG order — vector-
// major, input-minor, one Intn(2) per bit — which YieldSession.EstimateFor
// replays to continue a sampled session's stream.
func TestRandomBatchMatchesScalarStream(t *testing.T) {
	inputs := []string{"a", "b", "c"}
	b := Random(inputs, 100, rand.New(rand.NewSource(7)))
	rng := rand.New(rand.NewSource(7))
	for v := 0; v < 100; v++ {
		got := b.Assignment(v)
		for _, name := range inputs {
			want := rng.Intn(2) == 1
			if got[name] != want {
				t.Fatalf("vector %d input %s = %v, want %v", v, name, got[name], want)
			}
		}
	}
}

// TestPackedBoolMatchesScalar is the property test: on random networks
// (constant nodes and input outputs included), over all 2^n inputs and
// over random multi-word batches with a partial last word, EvalBool equals
// the reference network.Network.EvalOutputs bit for bit, and its rows are
// copies: overwriting them leaves the batch as it was.
func TestPackedBoolMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		nw := randomBoolNet(rng, n)
		nc := netcore.FromNetwork(nw)
		for _, batch := range propertyBatches(t, rng, inputNames(nw)) {
			got, err := EvalBool(nc, batch)
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m < batch.Len(); m++ {
				want, err := nw.EvalOutputs(batch.Assignment(m))
				if err != nil {
					t.Fatal(err)
				}
				for o := range want {
					if Bit(got[o], m) != want[o] {
						t.Fatalf("trial %d, %d vectors: vector %d output %d: packed=%v scalar=%v",
							trial, batch.Len(), m, o, Bit(got[o], m), want[o])
					}
				}
			}
			before := make([][]uint64, len(batch.words))
			for i, row := range batch.words {
				before[i] = append([]uint64(nil), row...)
			}
			for _, row := range got {
				for wi := range row {
					row[wi] = ^row[wi]
				}
			}
			for i, row := range batch.words {
				for wi := range row {
					if row[wi] != before[i][wi] {
						t.Fatalf("trial %d: EvalBool's rows alias batch column %d", trial, i)
					}
				}
			}
		}
	}
}

func inputNames(nw *network.Network) []string {
	names := make([]string, len(nw.Inputs))
	for i, in := range nw.Inputs {
		names[i] = in.Name
	}
	return names
}

// TestPackedThreshMatchesScalar checks that packed threshold evaluation
// equals the reference core.Network.EvalOutputs on random networks (wide
// gates included), over all 2^n inputs and over random batches with a
// partial last word.
func TestPackedThreshMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		tn := randomThreshNet(rng, n)
		sim, err := CompileThresh(tn)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range propertyBatches(t, rng, tn.Inputs) {
			got, err := sim.Eval(batch)
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m < batch.Len(); m++ {
				want, err := tn.EvalOutputs(batch.Assignment(m))
				if err != nil {
					t.Fatal(err)
				}
				for o := range want {
					if Bit(got[o], m) != want[o] {
						t.Fatalf("trial %d, %d vectors: vector %d output %d: packed=%v scalar=%v",
							trial, batch.Len(), m, o, Bit(got[o], m), want[o])
					}
				}
			}
		}
	}
}

// TestPackedPerturbedMatchesScalar checks that under random weight noise
// the packed evaluator equals the scalar reference bit for bit (same
// float association order, so even razor-edge sums agree), on exhaustive
// and random batches, wide gates included.
func TestPackedPerturbedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		tn := randomThreshNet(rng, n)
		sim, err := CompileThresh(tn)
		if err != nil {
			t.Fatal(err)
		}
		noise := make([][]float64, len(tn.Gates))
		for gi, g := range tn.Gates {
			ns := make([]float64, len(g.Weights))
			for i := range ns {
				ns[i] = 2 * (rng.Float64() - 0.5)
			}
			noise[gi] = ns
		}
		for _, batch := range propertyBatches(t, rng, tn.Inputs) {
			got, err := sim.EvalPerturbed(batch, noise)
			if err != nil {
				t.Fatal(err)
			}
			d := &Defect{WeightNoise: noise}
			for m := 0; m < batch.Len(); m++ {
				want, _ := scalarDefect(sim, d, batch.Assignment(m))
				for o := range want {
					if Bit(got[o], m) != want[o] {
						t.Fatalf("trial %d, %d vectors: vector %d output %d: packed=%v scalar=%v",
							trial, batch.Len(), m, o, Bit(got[o], m), want[o])
					}
				}
			}
		}
	}
}

// scalarDefect evaluates one vector under a defect gate by gate in
// Gates order, returning the outputs and every gate's value. It mirrors
// core.Gate.EvalPerturbed's float association: weights plus noise summed
// in ascending input order, here against T plus drift. Nil defect fields
// mean no fault of that kind.
func scalarDefect(s *ThreshSim, d *Defect, in map[string]bool) (outs, gates []bool) {
	val := make(map[string]bool, len(in)+len(s.tn.Gates))
	for k, v := range in {
		val[k] = v
	}
	for gi, g := range s.tn.Gates {
		var fire bool
		if d.Stuck != nil && d.Stuck[gi] >= 0 {
			fire = d.Stuck[gi] == 1
		} else {
			sum := 0.0
			for i, name := range g.Inputs {
				if val[name] {
					if d.WeightNoise != nil {
						sum += float64(g.Weights[i]) + d.WeightNoise[gi][i]
					} else {
						sum += float64(g.Weights[i])
					}
				}
			}
			t := float64(g.T)
			if d.ThresholdNoise != nil {
				t += d.ThresholdNoise[gi]
			}
			fire = sum >= t
		}
		val[g.Name] = fire
		gates = append(gates, fire)
	}
	for _, o := range s.tn.Outputs {
		outs = append(outs, val[o])
	}
	return outs, gates
}

// TestPackedDefectMatchesScalar checks that EvalDefect under weight
// noise, threshold drift and stuck gates equals a scalar per-vector
// reference on every output and every trace row, on exhaustive and
// random batches, wide gates included.
func TestPackedDefectMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		tn := randomThreshNet(rng, n)
		sim, err := CompileThresh(tn)
		if err != nil {
			t.Fatal(err)
		}
		order := tn.Gates
		d := &Defect{
			WeightNoise:    make([][]float64, len(order)),
			ThresholdNoise: make([]float64, len(order)),
			Stuck:          make([]int8, len(order)),
		}
		for gi, g := range order {
			d.WeightNoise[gi] = make([]float64, len(g.Weights))
			for i := range g.Weights {
				d.WeightNoise[gi][i] = 2 * (rng.Float64() - 0.5)
			}
			d.ThresholdNoise[gi] = rng.Float64() - 0.5
			d.Stuck[gi] = -1
			if rng.Intn(2) == 0 {
				d.Stuck[gi] = int8(rng.Intn(2))
			}
		}
		for _, batch := range propertyBatches(t, rng, tn.Inputs) {
			trace := makeTrace(len(order), batch.Words())
			got, err := sim.EvalDefect(batch, d, trace)
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m < batch.Len(); m++ {
				outs, gates := scalarDefect(sim, d, batch.Assignment(m))
				for o := range outs {
					if Bit(got[o], m) != outs[o] {
						t.Fatalf("trial %d, %d vectors: vector %d output %d: packed=%v scalar=%v",
							trial, batch.Len(), m, o, Bit(got[o], m), outs[o])
					}
				}
				for gi := range gates {
					if Bit(trace[gi], m) != gates[gi] {
						t.Fatalf("trial %d, %d vectors: vector %d gate %s: trace=%v scalar=%v",
							trial, batch.Len(), m, order[gi].Name, Bit(trace[gi], m), gates[gi])
					}
				}
			}
		}
	}
}

// TestTraceAlignedWithGates pins the alignment contract: Defect slices
// and trace rows are indexed like tn.Gates. Sticking gate gi forces trace
// row gi, and every row matches a scalar walk of tn.Gates.
func TestTraceAlignedWithGates(t *testing.T) {
	tn := randomThreshNet(rand.New(rand.NewSource(23)), 5)
	sim, err := CompileThresh(tn)
	if err != nil {
		t.Fatal(err)
	}
	batch := exhaustive(tn.Inputs)
	for gi, g := range tn.Gates {
		for _, sv := range []int8{0, 1} {
			stuck := make([]int8, len(tn.Gates))
			for i := range stuck {
				stuck[i] = -1
			}
			stuck[gi] = sv
			d := &Defect{Stuck: stuck}
			trace := makeTrace(len(tn.Gates), batch.Words())
			if _, err := sim.EvalDefect(batch, d, trace); err != nil {
				t.Fatal(err)
			}
			for m := 0; m < batch.Len(); m++ {
				_, want := scalarDefect(sim, d, batch.Assignment(m))
				if Bit(trace[gi], m) != (sv == 1) {
					t.Fatalf("gate %d (%s) stuck at %d: trace row reads %v at vector %d",
						gi, g.Name, sv, Bit(trace[gi], m), m)
				}
				for i := range want {
					if Bit(trace[i], m) != want[i] {
						t.Fatalf("gate %d stuck: trace row %d differs from the walk of tn.Gates at vector %d", gi, i, m)
					}
				}
			}
		}
	}
}

// TestStuckAtDefect: sticking the output gate forces the output word.
func TestStuckAtDefect(t *testing.T) {
	tn := core.NewNetwork("s")
	tn.AddInput("a")
	tn.AddInput("b")
	if err := tn.AddGate(&core.Gate{Name: "f", Inputs: []string{"a", "b"}, Weights: []int{1, 1}, T: 2}); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")
	sim, err := CompileThresh(tn)
	if err != nil {
		t.Fatal(err)
	}
	batch := exhaustive(tn.Inputs)
	for _, v := range []int8{0, 1} {
		out, err := sim.EvalDefect(batch, &Defect{Stuck: []int8{v}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < batch.Len(); m++ {
			if Bit(out[0], m) != (v == 1) {
				t.Fatalf("stuck-at-%d: vector %d = %v", v, m, Bit(out[0], m))
			}
		}
	}
}

// TestFirstDiff checks mismatch localization across words.
func TestFirstDiff(t *testing.T) {
	b := newBatch([]string{"x"}, 130)
	a := [][]uint64{{0, 0, 0}}
	c := [][]uint64{{0, 1 << 5, 1 << 1}}
	vec, out, found := b.FirstDiff(a, c)
	if !found || vec != 69 || out != 0 {
		t.Fatalf("FirstDiff = (%d, %d, %v), want (69, 0, true)", vec, out, found)
	}
	// Lanes beyond Len are masked: 130 vectors → word 2 valid bits 0..1.
	c2 := [][]uint64{{0, 0, 0xFFFFFFFFFFFFFFFC}}
	if _, _, found := b.FirstDiff(a, c2); found {
		t.Fatal("diff found in masked lane")
	}
}

// TestVectorsRule pins the one exhaustive-or-sampled rule: all 2^n
// vectors up to ExhaustiveInputs inputs without touching the RNG,
// `samples` vectors drawn exactly as Random draws them beyond.
func TestVectorsRule(t *testing.T) {
	names := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("x%d", i)
		}
		return out
	}
	rng := rand.New(rand.NewSource(5))
	b := Vectors(names(ExhaustiveInputs), 100, rng)
	if b.Len() != 1<<ExhaustiveInputs {
		t.Fatalf("exhaustive batch has %d vectors", b.Len())
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(5)).Int63(); got != want {
		t.Fatal("exhaustive batch consumed the RNG")
	}

	wide := names(ExhaustiveInputs + 1)
	b = Vectors(wide, 100, rand.New(rand.NewSource(5)))
	want := Random(wide, 100, rand.New(rand.NewSource(5)))
	if _, _, differ := b.FirstDiff(b.words, want.words); b.Len() != 100 || differ {
		t.Fatalf("sampled batch: %d vectors, or not the Random draw", b.Len())
	}
}
