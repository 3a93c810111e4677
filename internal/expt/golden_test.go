package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/mcnc"
	"tels/internal/opt"
)

// TestCorpusGolden is the whole-corpus identity gate for the network-core
// refactor: every MCNC benchmark is written as BLIF, parsed back, and
// pushed through the full pipeline (optimization script × mapper); the
// resulting .tln text must be byte-identical to the committed golden
// files, which were generated by the pre-refactor pointer-based
// implementation. Because the service layer's job result digests are
// SHA-256 over content that embeds exactly this .tln text plus stats
// derived from it, byte-identical .tln output here pins the job digests
// too (the manifest records the digests explicitly so a drift names the
// offending pipeline).
//
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/expt -run TestCorpusGolden
func TestCorpusGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	dir := filepath.Join("testdata", "golden")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	pipelines := flowPipelines
	var manifest []string
	for _, bm := range mcnc.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			if testing.Short() && bm.Name == "i10" {
				t.Skip("large benchmark skipped in -short mode")
			}
			// The gate reads BLIF text, as tels, telsd and perfbench do.
			text, err := blif.WriteString(bm.Build())
			if err != nil {
				t.Fatal(err)
			}
			src, err := blif.ParseCoreString(text)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pipelines {
				optimized, err := opt.Run(p.script, src)
				if err != nil {
					t.Fatal(err)
				}
				tn, _, err := core.Map(p.mapper, optimized, core.DefaultOptions())
				if err != nil {
					t.Fatalf("%s/%s: %v", p.script, p.mapper, err)
				}
				st := tn.Stats()
				got := fmt.Sprintf("# gates=%d levels=%d area=%d\n%s",
					st.Gates, st.Levels, st.Area, tn.String())
				script := p.script
				if script == "none" {
					script = "raw"
				}
				file := filepath.Join(dir, fmt.Sprintf("%s.%s.%s.tln", bm.Name, script, p.mapper))
				if update {
					if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256([]byte(got))
					manifest = append(manifest, fmt.Sprintf("%s  %s.%s.%s",
						hex.EncodeToString(sum[:]), bm.Name, script, p.mapper))
					continue
				}
				want, err := os.ReadFile(file)
				if err != nil {
					t.Fatalf("missing golden %s (regenerate with UPDATE_GOLDEN=1): %v", file, err)
				}
				if string(want) != got {
					t.Fatalf("%s/%s: .tln output drifted from golden %s\n"+
						"the refactored core no longer synthesizes byte-identical networks",
						p.script, p.mapper, file)
				}
			}
		})
	}
	if update {
		var sb []byte
		for _, line := range manifest {
			sb = append(sb, line...)
			sb = append(sb, '\n')
		}
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST.sha256"), sb, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
