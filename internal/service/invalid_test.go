package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tels/internal/fsim"
)

// TestMaxYieldTrialsBounded: a max_trials beyond MaxYieldTrials is refused
// as invalid_request for every kind that runs the trial loop, instead of
// admitting a job that holds a CPU for hours past its deadline.
func TestMaxYieldTrialsBounded(t *testing.T) {
	for _, kind := range []string{"yield", "sweep", "resyn"} {
		req := Request{BLIF: testBlif, Kind: kind, Yield: YieldSpec{MaxTrials: MaxYieldTrials}}
		if err := req.Normalize(); err != nil {
			t.Fatalf("%s at the bound: %v", kind, err)
		}
		req = Request{BLIF: testBlif, Kind: kind, Yield: YieldSpec{MaxTrials: MaxYieldTrials + 1}}
		if err := req.Normalize(); err == nil {
			t.Fatalf("%s: max_trials %d accepted", kind, MaxYieldTrials+1)
		}
	}

	m := newTestManager(t, Config{Workers: 1})
	// Should a request slip through, it must not run the real trial loop.
	m.exec = func(ctx context.Context, req Request) (Result, error) { return Result{}, nil }
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	body := `{"kind":"yield","spec":{"blif":` + string(mustJSON(testBlif)) +
		`,"yield":{"max_trials":2000000000,"half_width":1e-9}}}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeInvalidRequest {
		t.Fatalf("status %d, code %q; want 400 %s", resp.StatusCode, env.Error.Code, CodeInvalidRequest)
	}
}

// TestInvalidInputErrorCode covers the error-hardening classification: a
// job failing with a wrapped fsim engine sentinel (ErrFaninLimit here —
// the TELS synthesizer itself splits gates below the packed limit, so
// the sentinel reaches the service only from hand-built networks or
// future pipelines) is surfaced as invalid_request, while an arbitrary
// internal failure stays unclassified.
func TestInvalidInputErrorCode(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	// Fail exactly as the yield runner does: the sentinel wrapped twice
	// with %w, once by fsim and once by the runner.
	m.exec = func(ctx context.Context, req Request) (Result, error) {
		return Result{}, fmt.Errorf("service: yield analysis: %w",
			fmt.Errorf("%w: gate g fanin 14 (max %d)", fsim.ErrFaninLimit, fsim.PackedFaninLimit))
	}
	job, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	done, err := m.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateFailed {
		t.Fatalf("state = %s, want failed", done.State)
	}
	if done.ErrorCode != CodeInvalidRequest {
		t.Fatalf("error code = %q (error %q), want %q", done.ErrorCode, done.Error, CodeInvalidRequest)
	}
	if !strings.Contains(done.Error, "fanin") {
		t.Fatalf("error does not mention fanin: %q", done.Error)
	}

	// An internal failure must NOT be classified as the client's fault.
	m2 := newTestManager(t, Config{Workers: 1})
	m2.exec = func(ctx context.Context, req Request) (Result, error) {
		return Result{}, fmt.Errorf("boom")
	}
	job2, err := m2.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	done2, err := m2.Wait(context.Background(), job2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done2.State != StateFailed || done2.ErrorCode != "" {
		t.Fatalf("internal failure misclassified: state %s, code %q", done2.State, done2.ErrorCode)
	}
}
