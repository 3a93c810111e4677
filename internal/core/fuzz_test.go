package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tels/internal/truth"
)

// FuzzParseTLN checks that the .tln parser never panics, that accepted
// networks have topological Gates, and that they print the same bytes
// after a round trip.
func FuzzParseTLN(f *testing.F) {
	seeds := []string{
		"",
		".tnet t\n.inputs a b\n.outputs f\n.gate f = [T=2] +1*a +1*b\n.end",
		".tnet t\n.inputs a\n.outputs f\n.gate f = [T=0] -1*a\n.end",
		".tnet t\n.inputs a\n.outputs f\n.gate f = [T=1]\n.end",
		".gate f = [T=x] +1*a",
		".gate f [T=1] 1*a",
		".tnet\n.end",
		"# comment\n.tnet c\n.inputs a\n.outputs a\n.end",
		".tnet t\n.inputs a\n.outputs f\n.gate f = [T=1] +1*\n.end",
		".tnet t\n.inputs a b\n.outputs f\n.gate f = [T=1] +1*g -1*b\n.gate g = [T=2] +1*a +1*b\n.end",
		".tnet t\n.inputs a\n.outputs f\n.gate f = [T=1] +1*g\n.gate g = [T=1] +1*f\n.end",
		".outputs a\n.gate a = [T=1]\n.inputs a\n",
		".inputs a a\n.outputs a\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		tn, err := ParseTLNString(input)
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(tn.Inputs)+len(tn.Gates))
		for _, in := range tn.Inputs {
			seen[in] = true
		}
		for _, g := range tn.Gates {
			for _, in := range g.Inputs {
				if !seen[in] {
					t.Fatalf("gate %s reads %s, not an input or earlier gate\n%s", g.Name, in, tn)
				}
			}
			seen[g.Name] = true
		}
		text := tn.String()
		back, err := ParseTLNString(text)
		if err != nil {
			t.Fatalf("accepted network failed to re-parse: %v\n%s", err, text)
		}
		if again := back.String(); again != text {
			t.Fatalf("round trip changed the text:\n%s\nthen\n%s", text, again)
		}
	})
}

// FuzzCheck referees the threshold check on random unate tables with
// independent oracles: the LP separability test when weights are
// unbounded, and an exhaustive search over every weight vector within
// the cap when one is set (n ≤ 4). On SAT the vector must realize the
// function within the cap, and a checker's memo of proven verdicts must
// never change an answer, also with some inputs negated. With the high
// bit of nb set it checks a function that is threshold by construction
// instead (see checkConstructed), on up to 9 inputs.
func FuzzCheck(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(1), uint8(0))
	f.Add(int64(7), uint8(5), uint8(1), uint8(2), uint8(0))
	f.Add(int64(23), uint8(6), uint8(0), uint8(1), uint8(5))
	f.Add(int64(-99), uint8(3), uint8(2), uint8(1), uint8(0))
	f.Add(int64(3), uint8(0x87), uint8(2), uint8(1), uint8(0))
	f.Add(int64(11), uint8(0x85), uint8(1), uint8(0), uint8(0))
	// Threshold tables whose repeat and flipped checks are memo hits: a
	// 4-input one at δon = 1, and a 3-input one under weight cap 3.
	f.Add(int64(5), uint8(2), uint8(1), uint8(0), uint8(0))
	f.Add(int64(10), uint8(1), uint8(0), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nb, donb, doffb, maxWb uint8) {
		don := int(donb) % 3
		doff := 1 + int(doffb)%2
		rng := rand.New(rand.NewSource(seed))
		if nb&0x80 != 0 {
			w, T := randomWeights(rng, 2+int(nb&0x7f)%8) // 2..9 inputs
			checkConstructed(t, w, T, don, doff)
			return
		}
		n := 2 + int(nb)%5 // 2..6
		maxW := int(maxWb) % 8
		if maxW != 0 && maxW < don+doff {
			maxW = don + doff
		}
		tt := randomUnate(rng, n)
		if isConst, _ := tt.IsConst(); isConst || len(tt.Support()) != n {
			return
		}
		refereeCheck(t, rng, tt, don, doff, maxW)
	})
}

// refereeCheck decides tt with a cold Checker and holds the answer
// against the independent oracles described at FuzzCheck, then holds the
// now warm checker against cold ones on tt and on tt with an rng-chosen
// subset of inputs negated. tt must be non-constant with full support.
func refereeCheck(t *testing.T, rng *rand.Rand, tt *truth.Table, don, doff, maxW int) {
	t.Helper()
	n := tt.N()
	var cold Checker
	v, ok := cold.Check(tt, don, doff, maxW)
	if maxW == 0 {
		if want := IsThresholdLP(tt); ok != want {
			t.Fatalf("verdict %v, LP oracle %v (f=%s don=%d doff=%d)", ok, want, tt, don, doff)
		}
	} else if n <= 4 {
		want, wantOK := minCappedObjective(tt, don, doff, maxW)
		if ok != wantOK {
			t.Fatalf("verdict %v, exhaustive %v (f=%s don=%d doff=%d maxW=%d)", ok, wantOK, tt, don, doff, maxW)
		}
		if ok && objective(v) != want {
			t.Fatalf("objective %d (%v;%d), exhaustive minimum %d (f=%s don=%d doff=%d maxW=%d)",
				objective(v), v.Weights, v.T, want, tt, don, doff, maxW)
		}
	}
	if ok {
		if !VerifyVector(tt, v, don, doff) {
			t.Fatalf("vector %v;%d fails verification (f=%s don=%d doff=%d)", v.Weights, v.T, tt, don, doff)
		}
		for _, w := range v.Weights {
			if maxW > 0 && abs(w) > maxW {
				t.Fatalf("weight %d exceeds cap %d (f=%s)", w, maxW, tt)
			}
		}
	}

	// Again on the same checker, so the instance is answered from its
	// memo of proven verdicts.
	if cv, cok := cold.Check(tt, don, doff, maxW); cok != ok || !reflect.DeepEqual(cv, v) {
		t.Fatalf("repeated check %v;%v, cold %v;%v (f=%s)", cv, cok, v, ok, tt)
	}

	// Negating inputs keeps the positive-unate form, so the warm checker
	// answers the flipped table from its memo, under the new phases.
	ft := tt
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			ft = ft.SubstituteNeg(i)
		}
	}
	var fresh Checker
	wv, wok := cold.Check(ft, don, doff, maxW)
	fv, fok := fresh.Check(ft, don, doff, maxW)
	switch {
	case wok != fok || !reflect.DeepEqual(wv, fv):
		t.Fatalf("flipped table %s: warm %v;%v, cold %v;%v (f=%s)", ft, wv, wok, fv, fok, tt)
	case wok != ok:
		t.Fatalf("flipped table %s: verdict %v, unflipped %v (f=%s)", ft, wok, ok, tt)
	case wok && !VerifyVector(ft, wv, don, doff):
		t.Fatalf("flipped table %s: vector %v;%d fails verification", ft, wv.Weights, wv.T)
	}
}

// weightedTable is the threshold function Σ wᵢxᵢ ≥ T.
func weightedTable(w []int, T int) *truth.Table {
	tt := truth.New(len(w))
	for m := 0; m < tt.Size(); m++ {
		sum := 0
		for i, wi := range w {
			if m>>i&1 != 0 {
				sum += wi
			}
		}
		tt.Set(m, sum >= T)
	}
	return tt
}

// randomWeights draws nonzero weights in [-20, 20] and a threshold above
// the least weighted sum and at most the greatest, so Σ wᵢxᵢ ≥ T is not
// constant.
func randomWeights(rng *rand.Rand, n int) ([]int, int) {
	w := make([]int, n)
	lo, hi := 0, 0
	for i := range w {
		for w[i] == 0 {
			w[i] = rng.Intn(41) - 20
		}
		if w[i] < 0 {
			lo += w[i]
		} else {
			hi += w[i]
		}
	}
	return w, lo + 1 + rng.Intn(hi-lo)
}

// checkConstructed checks f = [w·x ≥ T], a threshold function by
// construction, without relying on the simplex for the verdict: the
// scaled vector (δon+δoff)·w with threshold (δon+δoff)·T − δon realizes f
// under the margins. A cold checker under the default budget must find a
// vector or bail out on its budget; an infeasible verdict, which it
// would store as proven, is wrong. A bailout stays an allowed answer.
func checkConstructed(t *testing.T, w []int, T, don, doff int) {
	t.Helper()
	tt := weightedTable(w, T)
	if isConst, _ := tt.IsConst(); isConst || len(tt.Support()) != len(w) {
		return
	}
	k := don + doff
	witness := WeightVector{Weights: make([]int, len(w)), T: k*T - don}
	for i, wi := range w {
		witness.Weights[i] = k * wi
	}
	if !VerifyVector(tt, witness, don, doff) {
		t.Fatalf("witness %v;%d does not realize w=%v T=%d", witness.Weights, witness.T, w, T)
	}
	var cold Checker
	before := SnapshotCheckCounters().BudgetBailouts
	v, ok := cold.Check(tt, don, doff, 0)
	switch {
	case ok && !VerifyVector(tt, v, don, doff):
		t.Fatalf("vector %v;%d fails verification (w=%v T=%d don=%d doff=%d)", v.Weights, v.T, w, T, don, doff)
	case !ok && (len(cold.verdicts) != 0 || SnapshotCheckCounters().BudgetBailouts == before):
		t.Fatalf("threshold function w=%v T=%d (don=%d doff=%d) rejected without a budget bailout", w, T, don, doff)
	}
}

// objective is the ILP's cost Σ|wᵢ| + T′, with T′ the threshold of the
// positive-unate form.
func objective(v WeightVector) int {
	sum, tpos := 0, v.T
	for _, w := range v.Weights {
		sum += abs(w)
		if w < 0 {
			tpos -= w
		}
	}
	return sum + tpos
}

// minCappedObjective searches every signed weight vector with |wᵢ| ≤ maxW
// for a realization of tt under the margins and returns the minimal
// objective. For fixed weights the cheapest threshold is the largest
// OFF-set sum plus δoff, feasible iff it stays δon below the smallest
// ON-set sum.
func minCappedObjective(tt *truth.Table, don, doff, maxW int) (int, bool) {
	n := tt.N()
	w := make([]int, n)
	best, found := 0, false
	var rec func(i int)
	rec = func(i int) {
		if i < n {
			for w[i] = -maxW; w[i] <= maxW; w[i]++ {
				rec(i + 1)
			}
			return
		}
		minOn, maxOff := math.MaxInt, math.MinInt
		for m := 0; m < tt.Size(); m++ {
			sum := 0
			for j := 0; j < n; j++ {
				if m&(1<<uint(j)) != 0 {
					sum += w[j]
				}
			}
			if tt.Get(m) {
				minOn = min(minOn, sum)
			} else {
				maxOff = max(maxOff, sum)
			}
		}
		T := maxOff + doff
		if T > minOn-don {
			return
		}
		if obj := objective(WeightVector{Weights: w, T: T}); !found || obj < best {
			best, found = obj, true
		}
	}
	rec(0)
	return best, found
}
