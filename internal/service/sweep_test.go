package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func sweepRequest() Request {
	return Request{
		BLIF:  testBlif,
		Kind:  "sweep",
		Yield: YieldSpec{MaxTrials: 64, Seed: 7},
		Sweep: SweepSpec{Vs: []float64{0.4, 0.8}, DeltaOns: []int{0, 2}},
	}
}

func TestSweepJobBasic(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	job, err := m.Submit(sweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	if job.Kind != "sweep" {
		t.Fatalf("kind = %q, want sweep", job.Kind)
	}
	done, err := m.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %s (%s), want done", done.State, done.Error)
	}
	sr := done.Result.Sweep
	if sr == nil {
		t.Fatal("no sweep result")
	}
	if sr.TotalPoints != 4 || sr.DonePoints != 4 || sr.FailedPoints != 0 {
		t.Fatalf("counts = %d/%d (%d failed), want 4/4", sr.DonePoints, sr.TotalPoints, sr.FailedPoints)
	}
	if len(sr.Points) != 4 {
		t.Fatalf("len(points) = %d, want 4", len(sr.Points))
	}
	for i, p := range sr.Points {
		if p.Index != i {
			t.Errorf("point %d: index %d, out of grid order", i, p.Index)
		}
		if p.Error != "" {
			t.Errorf("point %d: error %q", i, p.Error)
		}
		if p.Gates <= 0 || p.Report == nil {
			t.Errorf("point %d: missing synthesis stats or report: %+v", i, p)
		}
	}
	// δon-major expansion: points 0,1 share δon=0, points 2,3 δon=2.
	if sr.Points[0].DeltaOn != 0 || sr.Points[2].DeltaOn != 2 {
		t.Fatalf("unexpected δon order: %d, %d", sr.Points[0].DeltaOn, sr.Points[2].DeltaOn)
	}
	snap := m.MetricsSnapshot()
	if snap["sweep_points_planned"] != 4 || snap["sweep_points_done"] != 4 {
		t.Errorf("sweep point counters = %d planned / %d done, want 4/4",
			snap["sweep_points_planned"], snap["sweep_points_done"])
	}
	if snap["jobs_done"] != 1 {
		t.Errorf("jobs_done = %d, want 1 (internal sub-tasks must not count)", snap["jobs_done"])
	}
}

// TestSweepUsesCachedSynthesis proves a sweep over an already-synthesized
// network never re-synthesizes: the prefix is served from the cache and
// only the grid points execute.
func TestSweepUsesCachedSynthesis(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	job, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}
	before := m.MetricsSnapshot()

	req := sweepRequest()
	req.Sweep.DeltaOns = nil // single δon = the cached synthesis
	job, err = m.Submit(req)
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
	after := m.MetricsSnapshot()
	// One prefix cache hit; the two points are fresh misses; no synthesis
	// pipeline beyond the two point estimates runs.
	if got := after["cache_hits"] - before["cache_hits"]; got != 1 {
		t.Errorf("cache_hits grew by %d, want 1 (the synth prefix)", got)
	}
	if got := after["cache_misses"] - before["cache_misses"]; got != 2 {
		t.Errorf("cache_misses grew by %d, want 2 (the points)", got)
	}
	if got := after["jobs_executed"] - before["jobs_executed"]; got != 2 {
		t.Errorf("jobs_executed grew by %d, want 2 — the sweep re-synthesized", got)
	}
}

// TestSweepRerunHitsOldPoints proves point results are cached per point
// (synth digest + point key): re-running a sweep with one extra grid
// point hits the cache on every old point.
func TestSweepRerunHitsOldPoints(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	req := sweepRequest()
	req.Sweep.DeltaOns = []int{0}
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}
	before := m.MetricsSnapshot()

	req.Sweep.Vs = append(req.Sweep.Vs, 1.2) // one new point
	job, err = m.Submit(req)
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
	pts := done.Result.Sweep.Points
	if len(pts) != 3 {
		t.Fatalf("len(points) = %d, want 3", len(pts))
	}
	if !pts[0].CacheHit || !pts[1].CacheHit {
		t.Errorf("old points not served from cache: %+v, %+v", pts[0], pts[1])
	}
	if pts[2].CacheHit {
		t.Errorf("new point unexpectedly cached: %+v", pts[2])
	}
	after := m.MetricsSnapshot()
	if got := after["cache_hits"] - before["cache_hits"]; got != 3 {
		t.Errorf("cache_hits grew by %d, want 3 (prefix + 2 old points)", got)
	}
	if got := after["jobs_executed"] - before["jobs_executed"]; got != 1 {
		t.Errorf("jobs_executed grew by %d, want 1 (only the new point)", got)
	}
}

// TestSweepCancelFreesWorkers cancels a sweep mid-flight while its point
// wedges the only worker, then proves the slot is released by running a
// plain job to completion.
func TestSweepCancelFreesWorkers(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 8})
	started := make(chan int, 16)
	release := make(chan struct{})
	m.sweepPointStart = func(i int) {
		started <- i
		<-release
	}
	defer close(release)

	req := sweepRequest()
	req.Sweep.DeltaOns = []int{0}
	req.Sweep.Vs = []float64{0.4, 0.8, 1.2}
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no point started")
	}
	if !m.Cancel(job.ID) {
		t.Fatal("cancel did not take effect")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done, err := m.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", done.State)
	}

	// The wedged point was abandoned; the single worker must be free.
	m.sweepPointStart = nil
	follow, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	fdone, err := m.Wait(ctx, follow.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fdone.State != StateDone {
		t.Fatalf("follow-up state = %s (%s), want done", fdone.State, fdone.Error)
	}
}

// TestSweepProgressMonotonic steps a sweep one point at a time and checks
// the polled progress counter only ever grows, with points landing in
// grid order.
func TestSweepProgressMonotonic(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	step := make(chan struct{})
	started := make(chan int, 16)
	m.sweepPointStart = func(i int) {
		started <- i
		<-step
	}

	req := sweepRequest()
	req.Sweep.DeltaOns = []int{0}
	req.Sweep.Vs = []float64{0.4, 0.8, 1.2}
	req.Sweep.MaxInFlight = 1
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	for k := 0; k < 3; k++ {
		select {
		case <-started:
		case <-deadline:
			t.Fatalf("point %d never started", k)
		}
		snap, _ := m.Get(job.ID)
		if snap.Progress == nil || snap.Progress.DonePoints != k || snap.Progress.TotalPoints != 3 {
			t.Fatalf("before releasing point %d: progress = %+v", k, snap.Progress)
		}
		step <- struct{}{}
		for {
			snap, _ = m.Get(job.ID)
			pr := snap.Progress
			if pr.DonePoints < k {
				t.Fatalf("done_points went backwards: %d after %d", pr.DonePoints, k)
			}
			for i, p := range pr.Points {
				if i > 0 && pr.Points[i-1].Index >= p.Index {
					t.Fatalf("points out of grid order: %+v", pr.Points)
				}
			}
			if pr.DonePoints == k+1 {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("point %d never landed", k)
			case <-time.After(time.Millisecond):
			}
		}
	}
	done, err := m.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %s (%s)", done.State, done.Error)
	}
}

func TestSweepValidation(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	bad := []Request{
		func() Request { // unknown model in the grid
			r := sweepRequest()
			r.Sweep.Models = []string{"wat"}
			return r
		}(),
		func() Request { // negative δon
			r := sweepRequest()
			r.Sweep.DeltaOns = []int{-1}
			return r
		}(),
		func() Request { // grid beyond MaxSweepPoints
			r := sweepRequest()
			r.Sweep.Vs = make([]float64, MaxSweepPoints+1)
			return r
		}(),
	}
	for i, req := range bad {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestV1SweepHTTP drives a sweep end to end through the versioned API:
// kind-tagged submission, progress polling, and the error envelope on the
// netlist route (a sweep has no single .tln).
func TestV1SweepHTTP(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, PollInterval: time.Millisecond}
	ctx := context.Background()

	job, err := c.SubmitSweep(ctx, SweepJobSpec{
		SynthSpec: SynthSpec{BLIF: testBlif},
		Yield:     YieldSpec{MaxTrials: 64, Seed: 7},
		Sweep:     SweepSpec{Vs: []float64{0.4, 0.8}, DeltaOns: []int{0, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lastDone := -1
	final, err := c.Wait(ctx, job.ID, func(j Job) {
		if j.Progress == nil {
			return
		}
		if j.Progress.DonePoints < lastDone {
			t.Errorf("polled done_points went backwards: %d after %d", j.Progress.DonePoints, lastDone)
		}
		lastDone = j.Progress.DonePoints
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if final.Progress == nil || final.Progress.DonePoints != 4 {
		t.Fatalf("final progress = %+v, want 4/4", final.Progress)
	}
	if final.Result.Sweep == nil || len(final.Result.Sweep.Points) != 4 {
		t.Fatalf("final sweep result = %+v", final.Result.Sweep)
	}

	_, err = c.TLN(ctx, job.ID)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != CodeConflict {
		t.Fatalf("tln on a sweep: err = %v, want %s envelope", err, CodeConflict)
	}
}

// synthSpec is a synth submission of testBlif with extra spec fields.
func synthSpec(fields string) string {
	return `{"kind":"synth","spec":{"blif":` + string(mustJSON(testBlif)) + `,` + fields + `}}`
}

// TestV1ErrorEnvelope checks every error path returns the uniform
// {"error": {"code", "message"}} body with the right code.
func TestV1ErrorEnvelope(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	huge := strings.Repeat(" ", maxBodyBytes+1)
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"unknown job", http.MethodGet, "/v1/jobs/nope", "", http.StatusNotFound, CodeNotFound},
		{"oversized submit", http.MethodPost, "/v1/jobs", huge, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"oversized result push", http.MethodPut, "/v1/cluster/result/d", huge, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"oversized compute", http.MethodPost, "/v1/cluster/compute", huge, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"unknown route", http.MethodGet, "/v2/anything", "", http.StatusNotFound, CodeNotFound},
		{"malformed body", http.MethodPost, "/v1/jobs", "{not json", http.StatusBadRequest, CodeInvalidRequest},
		{"unknown kind", http.MethodPost, "/v1/jobs", `{"kind":"wat","spec":{}}`, http.StatusBadRequest, CodeInvalidRequest},
		{"missing spec", http.MethodPost, "/v1/jobs", `{"kind":"synth"}`, http.StatusBadRequest, CodeInvalidRequest},
		{"invalid spec", http.MethodPost, "/v1/jobs", `{"kind":"synth","spec":{"blif":""}}`, http.StatusBadRequest, CodeInvalidRequest},
		// Options core would reject are refused at submit, not on a worker.
		{"delta_off 0", http.MethodPost, "/v1/jobs", synthSpec(`"delta_off":0`), http.StatusBadRequest, CodeInvalidRequest},
		{"sweep delta_off 0", http.MethodPost, "/v1/jobs", `{"kind":"sweep","spec":{"blif":` + string(mustJSON(testBlif)) + `,"delta_off":0,"sweep":{"vs":[0.8]}}}`, http.StatusBadRequest, CodeInvalidRequest},
		{"fanin 1", http.MethodPost, "/v1/jobs", synthSpec(`"fanin":1`), http.StatusBadRequest, CodeInvalidRequest},
		{"fanin 40", http.MethodPost, "/v1/jobs", synthSpec(`"fanin":40`), http.StatusBadRequest, CodeInvalidRequest},
		{"max_weight below margins", http.MethodPost, "/v1/jobs", synthSpec(`"delta_on":2,"max_weight":2`), http.StatusBadRequest, CodeInvalidRequest},
		{"sweep delta_on above max_weight", http.MethodPost, "/v1/jobs", `{"kind":"sweep","spec":{"blif":` + string(mustJSON(testBlif)) + `,"max_weight":2,"sweep":{"vs":[0.8],"delta_ons":[0,3]}}}`, http.StatusBadRequest, CodeInvalidRequest},
		{"legacy unknown job", http.MethodGet, "/jobs/nope", "", http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var env struct {
				Error APIError `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("body is not the error envelope: %v", err)
			}
			if env.Error.Code != tc.wantCode || env.Error.Message == "" {
				t.Fatalf("envelope = %+v, want code %s", env.Error, tc.wantCode)
			}
		})
	}
}

// TestLegacyFlatSubmission keeps the pre-v1 removal honest: the retired
// flat routes (POST /synth, unversioned /jobs mirrors) must answer 404
// with the v1 error envelope, never silently run a job.
func TestLegacyFlatSubmission(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/synth", "application/json",
		strings.NewReader(`{"blif":`+string(mustJSON(testBlif))+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /synth status = %d, want 404", resp.StatusCode)
	}
	var env struct {
		Error APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("POST /synth body is not the error envelope: %v", err)
	}
	if env.Error.Code != CodeNotFound || env.Error.Message == "" {
		t.Fatalf("POST /synth envelope = %+v, want code %s", env.Error, CodeNotFound)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Fatalf("retired route created a job: %+v", jobs)
	}

	for _, path := range []string{"/jobs", "/jobs/job-000001", "/healthz", "/metrics"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, r.StatusCode)
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
