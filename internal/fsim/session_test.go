package fsim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tels/internal/core"
	"tels/internal/logic"
	"tels/internal/netcore"
)

// wideAndPair builds an n-input AND tree (n > ExhaustiveInputs exercises
// the randomly sampled batch path) as both network kinds.
func wideAndPair(t *testing.T, n int) (*netcore.Network, *core.Network) {
	t.Helper()
	nw := netcore.New("wide")
	tn := core.NewNetwork("wide")
	var half [2][]netcore.Net
	var names [2][]string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("x%d", i)
		half[i%2] = append(half[i%2], nw.AddInput(name))
		tn.AddInput(name)
		names[i%2] = append(names[i%2], name)
	}
	var tops []netcore.Net
	for h := 0; h < 2; h++ {
		cube := make([]byte, len(half[h]))
		for i := range cube {
			cube[i] = '1'
		}
		node := nw.AddNode(fmt.Sprintf("h%d", h), half[h], logic.MustCover(string(cube)))
		tops = append(tops, node)
		w := make([]int, len(names[h]))
		for i := range w {
			w[i] = 1
		}
		if err := tn.AddGate(&core.Gate{Name: fmt.Sprintf("h%d", h), Inputs: names[h], Weights: w, T: len(w)}); err != nil {
			t.Fatal(err)
		}
	}
	f := nw.AddNode("f", tops, logic.MustCover("11"))
	nw.MarkOutput(f)
	if err := tn.AddGate(&core.Gate{Name: "f", Inputs: []string{"h0", "h1"}, Weights: []int{1, 1}, T: 2}); err != nil {
		t.Fatal(err)
	}
	tn.MarkOutput("f")
	return nw, tn
}

func reportsEqual(a, b *YieldReport) bool {
	return a.Trials == b.Trials && a.Failures == b.Failures &&
		a.FailureRate == b.FailureRate && a.Lo == b.Lo && a.Hi == b.Hi &&
		a.Vectors == b.Vectors && a.EarlyStopped == b.EarlyStopped &&
		reflect.DeepEqual(a.Critical, b.Critical)
}

// TestYieldSessionMatchesEstimateYield: on an exhaustive batch, a shared
// session reproduces the single-call estimator bit for bit, for every
// model and any per-point seed.
func TestYieldSessionMatchesEstimateYield(t *testing.T) {
	nw, tn := andPair(t)
	sess, err := NewYieldSession(nw, tn, YieldConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	models := []DefectModel{
		WeightVariation{V: 2.5}, ThresholdDrift{V: 1.5}, StuckAt{P: 0.3},
	}
	for _, model := range models {
		for _, seed := range []int64{1, 7, 99} {
			cfg := YieldConfig{MaxTrials: 150, MinTrials: 16, Seed: seed}
			want, err := EstimateYield(nw, tn, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.Estimate(model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reportsEqual(got, want) {
				t.Fatalf("%s seed %d: session %+v != single-call %+v", model.Name(), seed, got, want)
			}
		}
	}
}

// TestYieldSessionWideMatches: with a randomly sampled batch (more inputs
// than ExhaustiveInputs) the session still matches the single-call
// estimator when the point seed equals the session's build seed.
func TestYieldSessionWideMatches(t *testing.T) {
	nw, tn := wideAndPair(t, ExhaustiveInputs+2)
	cfg := YieldConfig{MaxTrials: 60, MinTrials: 8, Samples: 256, Seed: 5}
	sess, err := NewYieldSession(nw, tn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Vectors() != 256 {
		t.Fatalf("vectors = %d, want 256", sess.Vectors())
	}
	want, err := EstimateYield(nw, tn, WeightVariation{V: 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Estimate(WeightVariation{V: 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(got, want) {
		t.Fatalf("session %+v != single-call %+v", got, want)
	}
}

// TestYieldSessionConcurrent: Estimate is safe to call from many
// goroutines on one session and stays deterministic under contention.
func TestYieldSessionConcurrent(t *testing.T) {
	nw, tn := andPair(t)
	sess, err := NewYieldSession(nw, tn, YieldConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	want := make([]*YieldReport, n)
	for i := 0; i < n; i++ {
		cfg := YieldConfig{MaxTrials: 120, MinTrials: 16, Seed: int64(i)}
		want[i], err = sess.Estimate(WeightVariation{V: 1.5 + float64(i)/4}, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*YieldReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := YieldConfig{MaxTrials: 120, MinTrials: 16, Seed: int64(i)}
			got[i], errs[i] = sess.Estimate(WeightVariation{V: 1.5 + float64(i)/4}, cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reportsEqual(got[i], want[i]) {
			t.Fatalf("point %d: concurrent %+v != sequential %+v", i, got[i], want[i])
		}
	}
}

// TestVerifyCleanNamesCounterexample: a clean mismatch names the first
// differing output and the input assignment it differs on, with both
// values.
func TestVerifyCleanNamesCounterexample(t *testing.T) {
	nw, tn := andPair(t)
	sess, err := NewYieldSession(nw, tn, YieldConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.VerifyClean(tn); err != nil {
		t.Fatal(err)
	}
	tn.Gates[0].T = 1 // now an OR: vector 1 (a=1, b=0) is the first to differ
	const want = "fsim: output f mismatches on map[a:true b:false]: boolean=false threshold=true"
	if err := sess.VerifyClean(tn); err == nil || err.Error() != want {
		t.Fatalf("VerifyClean = %v, want %q", err, want)
	}
}
