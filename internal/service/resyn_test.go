package service

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tels/internal/core"
)

func resynRequest() Request {
	return Request{
		BLIF:  testBlif,
		Kind:  "resyn",
		Yield: YieldSpec{Model: "weight", V: 1.0, MaxTrials: 300, Seed: 11},
		Resyn: ResynSpec{TargetYield: 0.95, MaxIters: 8, TopK: 2},
	}
}

// TestResynJob runs a kind "resyn" job end to end: the result carries
// the loop report and a parseable hardened netlist, the recorded
// iterations stream through the job snapshot, and an identical
// resubmission is a cache hit with the same outcome.
func TestResynJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	job, err := m.Submit(resynRequest())
	if err != nil {
		t.Fatal(err)
	}
	done, err := m.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %s (%s)", done.State, done.Error)
	}
	rep := done.Result.Resyn
	if rep == nil || len(rep.Iterations) == 0 {
		t.Fatalf("missing resyn report: %+v", done.Result)
	}
	if rep.FinalYield < rep.InitialYield {
		t.Fatalf("yield regressed: %.3f → %.3f", rep.InitialYield, rep.FinalYield)
	}
	tn, err := core.ParseTLNString(done.Result.TLN)
	if err != nil {
		t.Fatalf("hardened tln does not parse: %v", err)
	}
	if tn.Area() != rep.FinalArea {
		t.Fatalf("tln area %d != reported final area %d", tn.Area(), rep.FinalArea)
	}
	// The per-iteration progress must have streamed into the snapshot.
	if done.Progress == nil || len(done.Progress.Iterations) != len(rep.Iterations) {
		t.Fatalf("progress = %+v, want %d iterations", done.Progress, len(rep.Iterations))
	}
	if done.Result.Stages.Analyze <= 0 {
		t.Fatalf("resyn stage not timed: %+v", done.Result.Stages)
	}

	again, err := m.Submit(resynRequest())
	if err != nil {
		t.Fatal(err)
	}
	done2, err := m.Wait(context.Background(), again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done2.State != StateDone || !done2.Result.CacheHit {
		t.Fatalf("identical resyn job should be a cache hit: %+v", done2)
	}
	if done2.Result.Resyn.FinalYield != rep.FinalYield || done2.Result.TLN != done.Result.TLN {
		t.Fatal("cached resyn result differs")
	}

	snap := m.MetricsSnapshot()
	if snap["resyn_iterations"] == 0 {
		t.Fatalf("resyn_iterations not counted: %v", snap)
	}
}

// TestResynStagesCountedOnce checks that a resyn job's stage sums count
// the baseline's run once: a first job on a fresh manager adds exactly the
// baseline's own parse, optimize, synthesize and verify times, and a
// second job whose baseline is a cache hit adds none of them.
func TestResynStagesCountedOnce(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	run := func(req Request) Result {
		t.Helper()
		job, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		done, err := m.Wait(context.Background(), job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", job.ID, done.State, done.Error)
		}
		return *done.Result
	}
	sums := func() [4]int64 {
		snap := m.MetricsSnapshot()
		return [4]int64{snap["stage_parse_ns_sum"], snap["stage_optimize_ns_sum"],
			snap["stage_synthesize_ns_sum"], snap["stage_verify_ns_sum"]}
	}

	rreq := resynRequest()
	if err := rreq.Normalize(); err != nil {
		t.Fatal(err)
	}
	if st := run(rreq).Stages; st.Parse != 0 || st.Optimize != 0 || st.Synthesize != 0 || st.Verify != 0 {
		t.Fatalf("resyn result reports the baseline's stages: %+v", st)
	}
	base := run(synthRequest(rreq, rreq.Options.DeltaOn))
	if !base.CacheHit {
		t.Fatal("the baseline was not cached by the resyn job")
	}
	st := base.Stages
	want := [4]int64{int64(st.Parse), int64(st.Optimize), int64(st.Synthesize), int64(st.Verify)}
	if got := sums(); got != want || want[0] == 0 {
		t.Fatalf("stage sums after one resyn job = %v, want the baseline's %v", got, want)
	}

	again := resynRequest()
	again.Resyn.TopK = 1
	if res := run(again); res.CacheHit {
		t.Fatal("the second resyn job was a cache hit; it must run on the cached baseline")
	}
	if got := sums(); got != want {
		t.Fatalf("stage sums after a second resyn job on the cached baseline = %v, want %v", got, want)
	}
}

// TestResynJobHTTP drives a resyn job over the v1 wire: kind-tagged
// submission, progress visible via GET /v1/jobs/{id}, hardened netlist
// via /tln.
func TestResynJobHTTP(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, PollInterval: 2 * time.Millisecond}
	ctx := context.Background()

	job, err := c.SubmitResyn(ctx, ResynJobSpec{
		SynthSpec: SynthSpec{BLIF: testBlif},
		Yield:     YieldSpec{Model: "weight", V: 1.0, MaxTrials: 300, Seed: 11},
		Resyn:     ResynSpec{TargetYield: 0.95, MaxIters: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawProgress bool
	done, err := c.Wait(ctx, job.ID, func(j Job) {
		if j.Progress != nil && len(j.Progress.Iterations) > 0 {
			sawProgress = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %s (%s)", done.State, done.Error)
	}
	if !sawProgress {
		t.Fatal("no poll ever observed resyn iterations in the job snapshot")
	}
	if done.Result == nil || done.Result.Resyn == nil {
		t.Fatalf("missing resyn result: %+v", done.Result)
	}
	tln, err := c.TLN(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ParseTLNString(tln); err != nil {
		t.Fatalf("served tln does not parse: %v", err)
	}
}

// TestResynValidation rejects malformed loop knobs and keeps resyn
// digests distinct from yield digests over the same netlist.
func TestResynValidation(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	bad := []Request{
		{BLIF: testBlif, Kind: "resyn", Resyn: ResynSpec{TopK: -1}},
		{BLIF: testBlif, Kind: "resyn", Resyn: ResynSpec{TargetYield: 1.5}},
		{BLIF: testBlif, Kind: "resyn", Resyn: ResynSpec{MaxDeltaOn: 1}, Options: core.Options{Fanin: 3, DeltaOn: 2}},
		{BLIF: testBlif, Kind: "resyn", Yield: YieldSpec{Model: "cosmic-ray"}},
	}
	for i, req := range bad {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}

	yield := Request{BLIF: testBlif, Kind: "yield"}
	if err := yield.Normalize(); err != nil {
		t.Fatal(err)
	}
	res := Request{BLIF: testBlif, Kind: "resyn"}
	if err := res.Normalize(); err != nil {
		t.Fatal(err)
	}
	dy, err := Digest(yield)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := Digest(res)
	if err != nil {
		t.Fatal(err)
	}
	if dy == dr {
		t.Fatal("resyn job shares a digest with a yield job")
	}
	tweaked := res
	tweaked.Resyn.TargetYield = 0.5
	dt, err := Digest(tweaked)
	if err != nil {
		t.Fatal(err)
	}
	if dt == dr {
		t.Fatal("resyn knobs must change the digest")
	}
}

// TestResynBaselineCoalescesWithSynth holds the first synthesis of a
// resyn job's baseline, submits a synth job whose request is that
// baseline's synthesis prefix, and checks that the two share one run: the
// baseline takes the same cache → in-flight → run path as every job.
func TestResynBaselineCoalescesWithSynth(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	var runs atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	real := m.exec
	m.exec = func(ctx context.Context, req Request) (Result, error) {
		if runs.Add(1) == 1 {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}
		return real(ctx, req)
	}

	rreq := resynRequest()
	if err := rreq.Normalize(); err != nil {
		t.Fatal(err)
	}
	rjob, err := m.Submit(rreq)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	sjob, err := m.Submit(synthRequest(rreq, rreq.Options.DeltaOn))
	if err != nil {
		t.Fatal(err)
	}
	// Once the synth job holds the second worker, give it time to start a
	// run of its own if it bypassed the baseline's flight.
	for j, _ := m.Get(sjob.ID); j.State == StateQueued; j, _ = m.Get(sjob.ID) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 100 && runs.Load() == 1; i++ {
		time.Sleep(time.Millisecond)
	}
	close(release)

	for _, id := range []string{rjob.ID, sjob.ID} {
		done, err := m.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", id, done.State, done.Error)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("synthesis ran %d times, want 1: the resyn baseline and the synth job did not coalesce", got)
	}
	if done, _ := m.Get(sjob.ID); !done.Result.CacheHit {
		t.Fatal("the synth job was not served by the baseline's run")
	}
}
