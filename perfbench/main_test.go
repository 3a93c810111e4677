package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestQuick runs a tiny job list through every workload of BENCHMARK.json,
// untraced and traced, and checks that each run is correct and emits
// exactly the metrics the file names, with their units.
func TestQuick(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	telsd := filepath.Join(t.TempDir(), "telsd")
	if out, err := exec.Command("go", "build", "-o", telsd, "tels/cmd/telsd").CombinedOutput(); err != nil {
		t.Fatalf("build telsd: %v\n%s", err, out)
	}
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			cfg := config{workload: wl.Name, seed: 1, trace: traced, quick: true, root: "..", telsd: telsd}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", wl.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestTelsdJobs checks the daemon job list: the same job multiset on
// every draw, about a tenth repeats, each at least two places after the
// original it repeats.
func TestTelsdJobs(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i10"}
	rng := rand.New(rand.NewSource(7))
	var first map[telsdJob]int
	for draw := 0; draw < 5; draw++ {
		jobs := telsdJobs(names, rng)
		count := map[telsdJob]int{}
		repeats := 0
		for i, j := range jobs {
			if j.bench == "i10" {
				t.Fatalf("draw %d: skipped benchmark i10 in the job list", draw)
			}
			if j.resubmitOf >= 0 {
				repeats++
				orig := jobs[j.resubmitOf]
				if i-j.resubmitOf < 2 || orig.resubmitOf != -1 || orig.bench != j.bench || orig.pipeline != j.pipeline {
					t.Fatalf("draw %d: job %d repeats job %d badly: %+v vs %+v", draw, i, j.resubmitOf, j, orig)
				}
				continue
			}
			count[j]++
		}
		if repeats != 4 || len(count) != 32 {
			t.Fatalf("draw %d: %d repeats, %d distinct jobs; want 4 and 32", draw, repeats, len(count))
		}
		if first == nil {
			first = count
		}
		for j, n := range first {
			if count[j] != n {
				t.Fatalf("draw %d: job multiset changed at %+v", draw, j)
			}
		}
	}
}
