package fsim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/network"
)

// randomBoolNet builds a random DAG of SOP nodes over n inputs.
func randomBoolNet(rng *rand.Rand, n int) *network.Network {
	nw := network.New("rand")
	var signals []*network.Node
	for i := 0; i < n; i++ {
		signals = append(signals, nw.AddInput(fmt.Sprintf("x%d", i)))
	}
	nodes := 2 + rng.Intn(8)
	for i := 0; i < nodes; i++ {
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
	return nw
}

// randomThreshNet builds a random threshold-gate DAG over n inputs.
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
		k := 1 + rng.Intn(4)
		if k > len(signals) {
			k = len(signals)
		}
		g := &core.Gate{Name: fmt.Sprintf("g%d", i), T: rng.Intn(7) - 2}
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
		if err := tn.AddGate(g); err != nil {
			panic(err)
		}
		signals = append(signals, g.Name)
	}
	tn.MarkOutput(signals[len(signals)-1])
	tn.MarkOutput(signals[rng.Intn(len(signals))])
	return tn
}

// exhaustive is the test shorthand for Exhaustive over inputs known to be
// within MaxExhaustiveInputs.
func exhaustive(t *testing.T, inputs []string) *Batch {
	t.Helper()
	b, err := Exhaustive(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// propertySizes are the random batch sizes the property tests add to the
// exhaustive batch: a single vector, a partial word, and multi-word
// batches whose last word is partial.
var propertySizes = []int{1, 63, 65, 130, 300}

// propertyBatches returns the exhaustive batch over inputs followed by
// one random batch of each propertySizes size.
func propertyBatches(t *testing.T, rng *rand.Rand, inputs []string) []*Batch {
	t.Helper()
	out := []*Batch{exhaustive(t, inputs)}
	for _, n := range propertySizes {
		out = append(out, Random(inputs, n, rng))
	}
	return out
}

// TestExhaustiveBatchLayout pins the packing convention: vector m assigns
// input i the value of bit i of m.
func TestExhaustiveBatchLayout(t *testing.T) {
	inputs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	b := exhaustive(t, inputs)
	if b.Len() != 256 || b.Words() != 4 {
		t.Fatalf("len=%d words=%d", b.Len(), b.Words())
	}
	for m := 0; m < b.Len(); m++ {
		got := b.Assignment(m)
		for i, name := range inputs {
			want := m>>uint(i)&1 == 1
			if got[name] != want {
				t.Fatalf("vector %d input %s = %v, want %v", m, name, got[name], want)
			}
		}
	}
}

// TestRandomBatchMatchesScalarStream checks that Random consumes the RNG
// exactly like the scalar per-vector sampler.
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

// TestPackedBoolMatchesScalar is the property test: on random networks,
// over all 2^n inputs and over random multi-word batches with a partial
// last word, the packed Boolean evaluator equals the scalar
// network.Evaluator bit for bit.
func TestPackedBoolMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		nw := randomBoolNet(rng, n)
		sim, err := CompileBool(nw)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := nw.NewEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range propertyBatches(t, rng, inputNames(nw)) {
			got, err := sim.Eval(batch)
			if err != nil {
				t.Fatal(err)
			}
			var want []bool
			for m := 0; m < batch.Len(); m++ {
				want, err = ev.Eval(batch.Assignment(m), want)
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

func inputNames(nw *network.Network) []string {
	names := make([]string, len(nw.Inputs))
	for i, in := range nw.Inputs {
		names[i] = in.Name
	}
	return names
}

// TestPackedThreshMatchesScalar: packed threshold evaluation equals the
// scalar core.Evaluator on random networks, over all 2^n inputs and over
// random batches with a partial last word.
func TestPackedThreshMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		tn := randomThreshNet(rng, n)
		sim, err := CompileThresh(tn)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := tn.NewEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range propertyBatches(t, rng, tn.Inputs) {
			got, err := sim.Eval(batch)
			if err != nil {
				t.Fatal(err)
			}
			var want []bool
			for m := 0; m < batch.Len(); m++ {
				want, err = ev.Eval(batch.Assignment(m), want)
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

// TestPackedPerturbedMatchesScalar: under random weight noise the packed
// evaluator equals core.Evaluator.EvalPerturbed bit for bit (same float
// association order, so even razor-edge sums agree), on exhaustive and
// random batches.
func TestPackedPerturbedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		tn := randomThreshNet(rng, n)
		sim, err := CompileThresh(tn)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := tn.NewEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		noise := make([][]float64, len(sim.GateOrder()))
		for gi, g := range sim.GateOrder() {
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
			var want []bool
			for m := 0; m < batch.Len(); m++ {
				want, err = ev.EvalPerturbed(batch.Assignment(m), noise, want)
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

// scalarDefect evaluates one vector under a defect gate by gate in
// GateOrder, returning the outputs and every gate's value. It mirrors
// fillNoisyFire's float association: weights plus noise summed in
// ascending input order against T plus drift.
func scalarDefect(s *ThreshSim, d *Defect, in map[string]bool) (outs, gates []bool) {
	val := make(map[string]bool, len(in)+len(s.order))
	for k, v := range in {
		val[k] = v
	}
	for gi, g := range s.order {
		var fire bool
		if d.Stuck != nil && d.Stuck[gi] >= 0 {
			fire = d.Stuck[gi] == 1
		} else {
			sum := 0.0
			for i, name := range g.Inputs {
				if val[name] {
					sum += float64(g.Weights[i]) + d.WeightNoise[gi][i]
				}
			}
			fire = sum >= float64(g.T)+d.ThresholdNoise[gi]
		}
		val[g.Name] = fire
		gates = append(gates, fire)
	}
	for _, o := range s.tn.Outputs {
		outs = append(outs, val[o])
	}
	return outs, gates
}

// TestPackedDefectMatchesScalar: EvalDefect under weight noise, threshold
// drift and stuck gates equals a scalar per-vector reference on every
// output and every trace row, on exhaustive and random batches.
func TestPackedDefectMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		tn := randomThreshNet(rng, n)
		sim, err := CompileThresh(tn)
		if err != nil {
			t.Fatal(err)
		}
		order := sim.GateOrder()
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

// TestGateOrderMatchesCoreEvaluator pins the noise-slice alignment
// contract between fsim and the scalar evaluator.
func TestGateOrderMatchesCoreEvaluator(t *testing.T) {
	tn := randomThreshNet(rand.New(rand.NewSource(23)), 5)
	sim, err := CompileThresh(tn)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := tn.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	a, b := sim.GateOrder(), ev.GateOrder()
	if len(a) != len(b) {
		t.Fatalf("order lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order[%d]: %s vs %s", i, a[i].Name, b[i].Name)
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
	batch := exhaustive(t, tn.Inputs)
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

// TestFaninLimit: compile rejects gates beyond the packed fanin limit.
func TestFaninLimit(t *testing.T) {
	tn := core.NewNetwork("wide")
	g := &core.Gate{Name: "f", T: 1}
	for i := 0; i < PackedFaninLimit+1; i++ {
		name := fmt.Sprintf("x%d", i)
		tn.AddInput(name)
		g.Inputs = append(g.Inputs, name)
		g.Weights = append(g.Weights, 1)
	}
	if err := tn.AddGate(g); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")
	if _, err := CompileThresh(tn); err == nil {
		t.Fatal("expected a fanin-limit error")
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
	if !b.Differs(a, c) {
		t.Fatal("Differs missed a valid-lane difference")
	}
	// Lanes beyond Len are masked: 130 vectors → word 2 valid bits 0..1.
	c2 := [][]uint64{{0, 0, 0xFFFFFFFFFFFFFFFC}}
	if _, _, found := b.FirstDiff(a, c2); found {
		t.Fatal("diff found in masked lane")
	}
	if b.Differs(a, c2) {
		t.Fatal("Differs saw a masked-lane difference")
	}
}

// TestPackDense round-trips explicit vectors.
func TestPackDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inputs := []string{"p", "q", "r"}
	vecs := make([]map[string]bool, 77)
	for i := range vecs {
		vecs[i] = map[string]bool{}
		for _, n := range inputs {
			vecs[i][n] = rng.Intn(2) == 1
		}
	}
	b, err := Pack(inputs, vecs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vecs {
		got := b.Assignment(i)
		for _, n := range inputs {
			if got[n] != want[n] {
				t.Fatalf("vector %d input %s mismatch", i, n)
			}
		}
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
	b, err := Vectors(names(ExhaustiveInputs), 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1<<ExhaustiveInputs {
		t.Fatalf("exhaustive batch has %d vectors", b.Len())
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(5)).Int63(); got != want {
		t.Fatal("exhaustive batch consumed the RNG")
	}

	wide := names(ExhaustiveInputs + 1)
	b, err = Vectors(wide, 100, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	want := Random(wide, 100, rand.New(rand.NewSource(5)))
	if b.Len() != 100 || b.Differs(b.words, want.words) {
		t.Fatalf("sampled batch: %d vectors, or not the Random draw", b.Len())
	}
}

// TestExhaustiveTooManyInputs: the hardened constructor reports the
// sentinel instead of panicking, and InvalidInput classifies it.
func TestExhaustiveTooManyInputs(t *testing.T) {
	inputs := make([]string, MaxExhaustiveInputs+1)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("x%d", i)
	}
	_, err := Exhaustive(inputs)
	if !errors.Is(err, ErrTooManyInputs) {
		t.Fatalf("err = %v, want ErrTooManyInputs", err)
	}
	if !InvalidInput(err) {
		t.Fatalf("InvalidInput(%v) = false", err)
	}
	if _, err := Exhaustive(inputs[:MaxExhaustiveInputs]); err != nil {
		t.Fatalf("at the limit: %v", err)
	}
}

// TestInvalidInputClassifier: fanin overflows classify as invalid input;
// unrelated errors do not.
func TestInvalidInputClassifier(t *testing.T) {
	if !InvalidInput(fmt.Errorf("wrapped: %w", ErrFaninLimit)) {
		t.Fatal("wrapped ErrFaninLimit not classified")
	}
	if InvalidInput(errors.New("disk on fire")) {
		t.Fatal("unrelated error classified as invalid input")
	}
	if InvalidInput(nil) {
		t.Fatal("nil error classified as invalid input")
	}
}
