package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/fsim"
	"tels/internal/mcnc"
	"tels/internal/opt"
)

// corpusYieldSHA256 pins the rendered yield reports of every
// algebraic→tels corpus network (see TestCorpusYieldGolden).
const corpusYieldSHA256 = "a2fe9740730f241eb54d75b6976106254fc3cc3b9aacdf6b31bd23e07ebd973c"

// TestCorpusYieldGolden is the identity gate for the Monte-Carlo yield
// loop: every MCNC benchmark but i10 goes BLIF text → algebraic → tels
// and through fsim.EstimateYield at the daemon's yield-job settings
// (weight variation v = 0.8, 256 trials, no early stop, seed 1). The
// JSON reports, critical-gate rankings included, are hashed in corpus
// order; any change to the vector batch, the defect draws, the packed
// evaluation or the blame attribution moves the hash.
func TestCorpusYieldGolden(t *testing.T) {
	h := sha256.New()
	for _, bm := range mcnc.All() {
		if bm.Name == "i10" {
			continue
		}
		text, err := blif.WriteString(bm.Build())
		if err != nil {
			t.Fatal(err)
		}
		src, err := blif.ParseCoreString(text)
		if err != nil {
			t.Fatal(err)
		}
		optimized, err := opt.Run("algebraic", src)
		if err != nil {
			t.Fatal(err)
		}
		tn, _, err := core.Map("tels", optimized, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fsim.EstimateYield(src, tn, fsim.WeightVariation{V: 0.8},
			fsim.YieldConfig{MaxTrials: 256, HalfWidth: 1e-9, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(bm.Name + " "))
		h.Write(js)
		h.Write([]byte("\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusYieldSHA256 {
		t.Fatalf("corpus yield reports hash to %s, want %s", got, corpusYieldSHA256)
	}
}
