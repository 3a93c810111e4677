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
// check is a proven rejection that the run's checker keeps.
const rejectTestBlif = `.model reject
.inputs a b c d
.outputs f
.names a b c d f
11-- 1
--11 1
.end
`

// TestSolverModeTransparent runs the same job on two managers, one after
// the other. Every run builds its own checker, so the second job starts
// as cold as the first: it registers the same UNSAT hit count, and the
// job digest, network and area do not change.
func TestSolverModeTransparent(t *testing.T) {
	var digests, tlns []string
	var areas, hits []int64
	for _, name := range []string{"first", "second"} {
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
		hits = append(hits, m.MetricsSnapshot()["unsat_core_hits"]-hitsBefore)
		digests = append(digests, done.Digest)
		tlns = append(tlns, done.Result.TLN)
		areas = append(areas, int64(done.Result.Stats.Area))
	}
	if hits[1] != hits[0] {
		t.Fatalf("second job registered %d unsat hits, first %d: check state leaked across jobs", hits[1], hits[0])
	}
	if digests[1] != digests[0] {
		t.Fatalf("second job changed the digest: %s vs %s", digests[1], digests[0])
	}
	if tlns[1] != tlns[0] {
		t.Fatalf("second job changed the network:\n%s\nvs\n%s", tlns[1], tlns[0])
	}
	if areas[1] != areas[0] {
		t.Fatalf("second job changed the area: %d vs %d", areas[1], areas[0])
	}
}
