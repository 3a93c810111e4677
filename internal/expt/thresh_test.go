package expt

import (
	"strings"
	"testing"
)

// TestThreshBenchQuick exercises the benchmark harness end to end on one
// small benchmark.
func TestThreshBenchQuick(t *testing.T) {
	rows, err := ThreshBench([]string{"comp4"}, 6, 10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Benchmark != "comp4" || r.Nodes == 0 || r.Checks != r.Nodes*len(threshConfigs) {
		t.Fatalf("malformed row: %+v", r)
	}
	if r.ColdMS <= 0 || r.DeployedMS <= 0 {
		t.Fatalf("missing timings: %+v", r)
	}
	var sb strings.Builder
	if err := WriteThreshBenchCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "comp4") {
		t.Fatalf("CSV missing row:\n%s", sb.String())
	}
	if !strings.Contains(RenderThreshBench(rows), "comp4") {
		t.Fatal("rendered table missing row")
	}
}

// TestHarvestThreshNodes checks the harvest filters: width window
// honoured, widest first, limit applied, repeats kept.
func TestHarvestThreshNodes(t *testing.T) {
	insts, err := HarvestThreshNodes("i10", 6, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) < 2 {
		t.Fatalf("harvested %d instances, want several", len(insts))
	}
	for i, inst := range insts {
		if n := inst.TT.N(); n < 6 || n > 10 {
			t.Fatalf("instance %d has %d vars, outside [6,10]", i, n)
		}
		if i > 0 && inst.TT.N() > insts[i-1].TT.N() {
			t.Fatal("instances not sorted widest first")
		}
	}
	capped, err := HarvestThreshNodes("i10", 6, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 3 {
		t.Fatalf("limit 3 returned %d instances", len(capped))
	}
}
