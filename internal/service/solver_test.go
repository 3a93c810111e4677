package service

import (
	"context"
	"testing"

	"tels/internal/core"
)

// A wider circuit than testBlif so the synthesis core runs a nontrivial
// number of threshold checks per job.
const solverTestBlif = `.model solvr
.inputs a b c d e
.outputs f g
.names a b c d x
1111 1
.names x e f
1- 1
-1 1
.names a c e g
110 1
011 1
101 1
.end
`

// TestSolverMetricsExported checks that the threshold-check counters are
// surfaced through /v1/metrics' backing snapshot with their documented
// names.
func TestSolverMetricsExported(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	job, err := m.Submit(Request{BLIF: solverTestBlif})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}
	snap := m.MetricsSnapshot()
	for _, key := range []string{
		"threshold_checks", "unsat_core_hits", "solver_budget_bailouts",
	} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("metrics snapshot missing %q", key)
		}
	}
	for _, key := range []string{"solver_mode", "races", "ilp_wins", "pbsat_wins"} {
		if _, ok := snap[key]; ok {
			t.Fatalf("metrics snapshot still exports removed key %q", key)
		}
	}
	if snap["threshold_checks"] == 0 {
		t.Fatal("threshold_checks did not advance across a synthesis job")
	}
}

// f = a·b + c·d is unate but not threshold, so with fanin 4 its first
// check is a proven rejection that the UNSAT cache keeps.
const rejectTestBlif = `.model reject
.inputs a b c d
.outputs f
.names a b c d f
11-- 1
--11 1
.end
`

// TestSolverModeTransparent runs the same job with the proven-UNSAT
// cache cold and then warm: the warm run answers repeated rejections
// from the cache, and the job digest, network and area must not change.
func TestSolverModeTransparent(t *testing.T) {
	core.ResetUnsatCache()
	defer core.ResetUnsatCache()
	var digests, tlns []string
	var areas []int
	for run, name := range []string{"cold", "warm"} {
		m := newTestManager(t, Config{Workers: 2})
		hitsBefore := m.MetricsSnapshot()["unsat_core_hits"]
		job, err := m.Submit(Request{BLIF: rejectTestBlif, Options: core.Options{Fanin: 4}})
		if err != nil {
			t.Fatalf("%s cache: %v", name, err)
		}
		done, err := m.Wait(context.Background(), job.ID)
		if err != nil {
			t.Fatalf("%s cache: %v", name, err)
		}
		if done.State != StateDone {
			t.Fatalf("%s cache: state %s (%s)", name, done.State, done.Error)
		}
		if run == 1 && m.MetricsSnapshot()["unsat_core_hits"] == hitsBefore {
			t.Fatal("warm run registered no unsat cache hits")
		}
		digests = append(digests, done.Digest)
		tlns = append(tlns, done.Result.TLN)
		areas = append(areas, done.Result.Stats.Area)
	}
	if digests[1] != digests[0] {
		t.Fatalf("warm cache changed the job digest: %s vs %s", digests[1], digests[0])
	}
	if tlns[1] != tlns[0] {
		t.Fatalf("warm cache changed the network:\n%s\nvs\n%s", tlns[1], tlns[0])
	}
	if areas[1] != areas[0] {
		t.Fatalf("warm cache changed the area: %d vs %d", areas[1], areas[0])
	}
}
