package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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

// TestYieldRangeChecked: a negative variation multiplier or a stuck
// probability outside [0, 1] is refused as invalid_request for every kind
// that runs the trial loop, instead of being admitted and cached under
// its own digest.
func TestYieldRangeChecked(t *testing.T) {
	cases := []struct {
		name string
		spec YieldSpec
		ok   bool
	}{
		{"weight v=-0.8", YieldSpec{Model: "weight", V: -0.8}, false},
		{"drift v=-0.1", YieldSpec{Model: "drift", V: -0.1}, false},
		{"stuck p=3", YieldSpec{Model: "stuck", P: 3}, false},
		{"stuck p=-0.5", YieldSpec{Model: "stuck", P: -0.5}, false},
		{"stuck p=1", YieldSpec{Model: "stuck", P: 1}, true},
		{"weight v=2.5", YieldSpec{Model: "weight", V: 2.5}, true},
		{"defaults", YieldSpec{}, true},
	}
	for _, kind := range []string{"yield", "sweep", "resyn"} {
		for _, c := range cases {
			req := Request{BLIF: testBlif, Kind: kind, Yield: c.spec}
			if err := req.Normalize(); (err == nil) != c.ok {
				t.Errorf("%s %s: Normalize error = %v, want ok=%v", kind, c.name, err, c.ok)
			}
		}
	}

	m := newTestManager(t, Config{Workers: 1})
	m.exec = func(ctx context.Context, req Request) (Result, error) { return Result{}, nil }
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	body := `{"kind":"yield","spec":{"blif":` + string(mustJSON(testBlif)) +
		`,"yield":{"model":"stuck","p":3}}}`
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

// TestWideGateYieldJob: a one-to-one mapping at fanin 14 of a 14-input OR
// is one 14-input threshold gate, wider than any fire table; its yield
// job runs through the packed engine and completes.
func TestWideGateYieldJob(t *testing.T) {
	const n = 14
	var b strings.Builder
	b.WriteString(".model wideor\n.inputs")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " x%d", i)
	}
	b.WriteString("\n.outputs f\n.names")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " x%d", i)
	}
	b.WriteString(" f\n")
	for i := 0; i < n; i++ {
		b.WriteString(strings.Repeat("-", i) + "1" + strings.Repeat("-", n-1-i) + " 1\n")
	}
	b.WriteString(".end\n")

	m := newTestManager(t, Config{Workers: 1})
	req := Request{BLIF: b.String(), Kind: "yield", Mapper: "one2one",
		Yield: YieldSpec{MaxTrials: 64, Seed: 1}}
	req.Options.Fanin = n
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := m.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", done.State, done.Error)
	}
	if done.Result.Stats.Gates != 1 || done.Result.Yield == nil || done.Result.Yield.Trials == 0 {
		t.Fatalf("want one gate and a yield report, got stats %+v yield %+v",
			done.Result.Stats, done.Result.Yield)
	}
}

// TestInvalidInputErrorCode: a runner failure fails the job with the
// runner's message.
func TestInvalidInputErrorCode(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.exec = func(ctx context.Context, req Request) (Result, error) {
		return Result{}, fmt.Errorf("boom")
	}
	job, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	done, err := m.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateFailed || done.Error != "boom" {
		t.Fatalf("runner failure: state %s, error %q, want failed with \"boom\"", done.State, done.Error)
	}
}
