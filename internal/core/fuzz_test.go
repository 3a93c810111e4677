package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tels/internal/truth"
)

// FuzzParseTLN checks that the .tln parser never panics and that accepted
// networks round trip.
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		tn, err := ParseTLNString(input)
		if err != nil {
			return
		}
		back, err := ParseTLNString(tn.String())
		if err != nil {
			t.Fatalf("accepted network failed to re-parse: %v\n%s", err, tn)
		}
		if len(back.Gates) != len(tn.Gates) || len(back.Inputs) != len(tn.Inputs) {
			t.Fatalf("round trip changed shape")
		}
	})
}

// FuzzCheck referees the threshold check on random unate tables with
// independent oracles: the LP separability test when weights are
// unbounded, and an exhaustive search over every weight vector within
// the cap when one is set (n ≤ 4). On SAT the vector must realize the
// function within the cap, and a checker's proven-UNSAT results must
// never change an answer.
func FuzzCheck(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(1), uint8(0))
	f.Add(int64(7), uint8(5), uint8(1), uint8(2), uint8(0))
	f.Add(int64(23), uint8(6), uint8(0), uint8(1), uint8(5))
	f.Add(int64(-99), uint8(3), uint8(2), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nb, donb, doffb, maxWb uint8) {
		n := 2 + int(nb)%5 // 2..6
		don := int(donb) % 3
		doff := 1 + int(doffb)%2
		maxW := int(maxWb) % 8
		if maxW != 0 && maxW < don+doff {
			maxW = don + doff
		}
		rng := rand.New(rand.NewSource(seed))
		tt := randomUnate(rng, n)
		if isConst, _ := tt.IsConst(); isConst || len(tt.Support()) != n {
			return
		}
		refereeCheck(t, tt, don, doff, maxW)
	})
}

// refereeCheck decides tt with a cold Checker and holds the answer
// against the independent oracles described at FuzzCheck. tt must be
// non-constant with full support.
func refereeCheck(t *testing.T, tt *truth.Table, don, doff, maxW int) {
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

	// Again on the same checker, so a rejected instance is answered
	// from its proven-UNSAT results.
	if cv, cok := cold.Check(tt, don, doff, maxW); cok != ok || !reflect.DeepEqual(cv, v) {
		t.Fatalf("repeated check %v;%v, cold %v;%v (f=%s)", cv, cok, v, ok, tt)
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
