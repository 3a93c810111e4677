package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

const testBlif = `.model small
.inputs a b c
.outputs f
.names a b x
11 1
.names x c f
1- 1
-1 1
.end
`

func testRequest() Request {
	return Request{BLIF: testBlif}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

func TestSubmitRunsFlow(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	job, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateQueued {
		t.Fatalf("state = %s, want queued", job.State)
	}
	done, err := m.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %s (%s), want done", done.State, done.Error)
	}
	if done.Result == nil || !strings.Contains(done.Result.TLN, ".tnet small") {
		t.Fatalf("bad result: %+v", done.Result)
	}
	if done.Result.Verified != "proved" && done.Result.Verified != "simulated" {
		t.Fatalf("verified = %q", done.Result.Verified)
	}
	if done.Result.CacheHit {
		t.Fatal("first run must not be a cache hit")
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	cases := []Request{
		{},                              // empty BLIF
		{BLIF: testBlif, Script: "wat"}, // unknown script
		{BLIF: testBlif, Mapper: "wat"}, // unknown mapper
		{BLIF: ".model m\n.inputs a\n.outputs y\n.names a b y\n11 1\n.end"}, // undefined signal
	}
	for i, req := range cases {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestConcurrentSubmissionsCoalesce is the acceptance test: N concurrent
// submissions of the same request produce identical .tln output with
// exactly one cache miss and N−1 hits; only one pipeline run executes.
func TestConcurrentSubmissionsCoalesce(t *testing.T) {
	const n = 8
	m := newTestManager(t, Config{Workers: 4, QueueDepth: n})

	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := m.Submit(testRequest())
			ids[i], errs[i] = job.ID, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	var tlns []string
	for _, id := range ids {
		job, err := m.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if job.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", id, job.State, job.Error)
		}
		tlns = append(tlns, job.Result.TLN)
	}
	for i := 1; i < n; i++ {
		if tlns[i] != tlns[0] {
			t.Fatalf("job %d produced different TLN:\n%s\nvs\n%s", i, tlns[i], tlns[0])
		}
	}

	snap := m.MetricsSnapshot()
	if snap["cache_misses"] != 1 {
		t.Errorf("cache_misses = %d, want 1", snap["cache_misses"])
	}
	if snap["cache_hits"] != n-1 {
		t.Errorf("cache_hits = %d, want %d", snap["cache_hits"], n-1)
	}
	if snap["jobs_executed"] != 1 {
		t.Errorf("jobs_executed = %d, want 1", snap["jobs_executed"])
	}
	if snap["jobs_done"] != n {
		t.Errorf("jobs_done = %d, want %d", snap["jobs_done"], n)
	}
}

// TestCancelReleasesWorkerSlot wedges the single worker on a stuck job,
// cancels it, and proves the slot is released by running a second job to
// completion.
func TestCancelReleasesWorkerSlot(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan struct{})
	real := m.exec
	m.exec = func(ctx context.Context, req Request) (Result, error) {
		if strings.Contains(req.BLIF, "stuck") {
			close(started)
			<-ctx.Done() // model a pipeline that never finishes on its own
			return Result{}, ctx.Err()
		}
		return real(ctx, req)
	}

	stuckReq := testRequest()
	stuckReq.BLIF = strings.Replace(stuckReq.BLIF, ".model small", ".model stuck", 1)
	stuck, err := m.Submit(stuckReq)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now wedged inside the stuck job

	if !m.Cancel(stuck.ID) {
		t.Fatal("cancel reported no effect")
	}
	job, err := m.Wait(context.Background(), stuck.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", job.State)
	}

	// The only worker must be free again: a normal job completes.
	next, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := m.Wait(ctx, next.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("follow-up job state = %s (%s), want done", done.State, done.Error)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan struct{})
	var once sync.Once
	m.exec = func(ctx context.Context, req Request) (Result, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return Result{}, ctx.Err()
	}
	first, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Use a different circuit so the queued job doesn't coalesce.
	queuedReq := testRequest()
	queuedReq.Options.Fanin = 4
	queued, err := m.Submit(queuedReq)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(queued.ID) {
		t.Fatal("cancel of queued job reported no effect")
	}
	job, _ := m.Get(queued.ID)
	if job.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", job.State)
	}
	m.Cancel(first.ID)
}

func TestJobTimeout(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.exec = func(ctx context.Context, req Request) (Result, error) {
		<-ctx.Done()
		return Result{}, ctx.Err()
	}
	req := testRequest()
	req.Timeout = 20 * time.Millisecond
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := m.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateFailed || !strings.Contains(done.Error, "timed out") {
		t.Fatalf("state = %s (%q), want failed/timed out", done.State, done.Error)
	}
}

func TestDigestCanonicalization(t *testing.T) {
	base := testRequest()
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	d1, err := Digest(base)
	if err != nil {
		t.Fatal(err)
	}

	// Comments and whitespace don't change the address.
	noisy := base
	noisy.BLIF = "# a comment\n" + strings.ReplaceAll(testBlif, ".inputs a b c", ".inputs  a  b  c")
	d2, err := Digest(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("whitespace/comment variants should share a digest")
	}

	// Any synthesis knob does.
	bumped := base
	bumped.Options.Fanin = 4
	d3, err := Digest(bumped)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d3 {
		t.Error("different fanin must change the digest")
	}
}

// TestDigestPinned pins the digest of a default synth request. A spec that
// still sends the retired "exact" field is accepted, because unknown
// fields are ignored, and digests the same as one without it.
func TestDigestPinned(t *testing.T) {
	const want = "b100a32ca5587ca382dbcac79db13f6aea58a33440ebf1d485512bb3ca74e1fe"
	for _, format := range []string{`{"blif": %q}`, `{"blif": %q, "exact": true}`} {
		spec := fmt.Sprintf(format, testBlif)
		req, err := SubmitEnvelope{Kind: "synth", Spec: json.RawMessage(spec)}.Request()
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		got, err := Digest(req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: digest %s, want %s", format, got, want)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", Result{TLN: "a"})
	c.Put("b", Result{TLN: "b"})
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	if evicted := c.Put("c", Result{TLN: "c"}); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestHTTPEndToEnd drives the full HTTP surface with the client: submit →
// poll → fetch .tln, then a second identical submission that must be a
// cache hit, visible in /metrics.
func TestHTTPEndToEnd(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, PollInterval: 5 * time.Millisecond}
	ctx := context.Background()

	job, err := c.SubmitSynth(ctx, SynthSpec{BLIF: testBlif})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitDone(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %s (%s)", done.State, done.Error)
	}
	tln, err := c.TLN(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tln, ".tnet small") {
		t.Fatalf("tln:\n%s", tln)
	}

	again, err := c.SubmitSynth(ctx, SynthSpec{BLIF: testBlif})
	if err != nil {
		t.Fatal(err)
	}
	done2, err := c.WaitDone(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done2.State != StateDone || done2.Result == nil || !done2.Result.CacheHit {
		t.Fatalf("second run should be a cache hit: %+v", done2)
	}
	if done2.Result.TLN != tln {
		t.Fatal("cache returned a different network")
	}

	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap["cache_hits"] != 1 || snap["cache_misses"] != 1 {
		t.Fatalf("metrics hits/misses = %d/%d, want 1/1", snap["cache_hits"], snap["cache_misses"])
	}
	if snap["jobs_done"] != 2 {
		t.Fatalf("jobs_done = %d, want 2", snap["jobs_done"])
	}
}

func TestHTTPErrors(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	if _, err := c.SubmitSynth(ctx, SynthSpec{}); err == nil {
		t.Error("empty submission accepted")
	}
	if _, err := c.Job(ctx, "job-999999"); err == nil {
		t.Error("unknown job returned no error")
	}
	if _, err := c.TLN(ctx, "job-999999"); err == nil {
		t.Error("unknown tln returned no error")
	}

	// .tln of an unfinished job is a conflict, not a success.
	started := make(chan struct{})
	m.exec = func(ctx context.Context, req Request) (Result, error) {
		close(started)
		<-ctx.Done()
		return Result{}, ctx.Err()
	}
	job, err := c.SubmitSynth(ctx, SynthSpec{BLIF: testBlif})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := c.TLN(ctx, job.ID); err == nil {
		t.Error("tln of a running job should fail")
	}
	if err := c.Cancel(ctx, job.ID); err != nil {
		t.Errorf("cancel: %v", err)
	}
}

func TestManagerCloseRejectsSubmit(t *testing.T) {
	m := New(Config{Workers: 1})
	m.Close()
	if _, err := m.Submit(testRequest()); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

// TestYieldJob runs a kind "yield" job end to end: the result carries a
// deterministic yield report, the analyze stage is timed, and an
// identical resubmission is served from the cache with the same report.
func TestYieldJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	req := Request{
		BLIF:  testBlif,
		Kind:  "yield",
		Yield: YieldSpec{Model: "weight", V: 2.0, MaxTrials: 200, Seed: 3},
	}
	job, err := m.Submit(req)
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
	rep := done.Result.Yield
	if rep == nil || rep.Trials == 0 || rep.Vectors != 8 {
		t.Fatalf("bad yield report: %+v", rep)
	}
	if done.Result.Stages.Analyze <= 0 {
		t.Fatalf("analyze stage not timed: %+v", done.Result.Stages)
	}

	again, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done2, err := m.Wait(context.Background(), again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !done2.Result.CacheHit {
		t.Fatal("identical yield job should be a cache hit")
	}
	r2 := done2.Result.Yield
	if r2.Trials != rep.Trials || r2.Failures != rep.Failures || r2.FailureRate != rep.FailureRate {
		t.Fatalf("cached report differs: %+v vs %+v", r2, rep)
	}
}

// TestYieldRequestValidation rejects unknown kinds and defect models and
// keeps yield knobs out of plain synthesis digests.
func TestYieldRequestValidation(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	bad := []Request{
		{BLIF: testBlif, Kind: "wat"},
		{BLIF: testBlif, Kind: "yield", Yield: YieldSpec{Model: "cosmic-ray"}},
		{BLIF: testBlif, Kind: "yield", Yield: YieldSpec{MaxTrials: -1}},
	}
	for i, req := range bad {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}

	synth := testRequest()
	if err := synth.Normalize(); err != nil {
		t.Fatal(err)
	}
	yield := Request{BLIF: testBlif, Kind: "yield"}
	if err := yield.Normalize(); err != nil {
		t.Fatal(err)
	}
	ds, err := Digest(synth)
	if err != nil {
		t.Fatal(err)
	}
	dy, err := Digest(yield)
	if err != nil {
		t.Fatal(err)
	}
	if ds == dy {
		t.Fatal("yield job shares a digest with plain synthesis")
	}
	seeded := yield
	seeded.Yield.Seed = 99
	dseed, err := Digest(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if dseed == dy {
		t.Fatal("yield seed must change the digest")
	}

	// The v1 wire form carries the yield block through to the typed
	// request.
	env := SubmitEnvelope{Kind: "yield", Spec: mustJSON(YieldJobSpec{
		SynthSpec: SynthSpec{BLIF: testBlif},
		Yield:     YieldSpec{Model: "drift", V: 1.5},
	})}
	req, err := env.Request()
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind != "yield" || req.Yield.Model != "drift" || req.Yield.V != 1.5 {
		t.Fatalf("wire conversion dropped yield spec: %+v", req)
	}
}
