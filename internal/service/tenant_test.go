package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"tels/internal/cluster"
	"tels/internal/store"
)

// testAuth builds the three-principal key table most tenancy tests use:
// two plain tenants plus an admin key.
func testAuth(t *testing.T, tenants ...TenantConfig) *Auth {
	t.Helper()
	if tenants == nil {
		tenants = []TenantConfig{
			{Name: "alice", Key: "ka"},
			{Name: "bob", Key: "kb"},
			{Name: "ops", Key: "kadmin", Admin: true},
		}
	}
	a, err := NewAuth(tenants)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func synthEnvelope(t *testing.T, priority string) []byte {
	t.Helper()
	spec, err := json.Marshal(SynthSpec{BLIF: testBlif})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SubmitEnvelope{Kind: "synth", Spec: spec, Priority: priority})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// readBody drains and returns a response body.
func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return []byte(sb.String())
}

// httpDo issues one request against the test server.
func httpDo(t *testing.T, srv *httptest.Server, method, path, key, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, readBody(t, resp)
}

// wantEnvelope asserts the body is the v1 error envelope with the code.
func wantEnvelope(t *testing.T, body []byte, wantCode string) {
	t.Helper()
	var env struct {
		Error APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body is not the JSON envelope: %v\n%s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	if wantCode != "" && env.Error.Code != wantCode {
		t.Fatalf("code = %q, want %q (%s)", env.Error.Code, wantCode, body)
	}
}

// TestV1ErrorEnvelopeConformance sweeps the whole v1 surface with wrong
// methods, bad bodies, and missing credentials: every error answer —
// the routing layer's own 405s included — must carry the uniform
// {"error": {"code", "message"}} envelope.
func TestV1ErrorEnvelopeConformance(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, Auth: testAuth(t)})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	cases := []struct {
		name       string
		method     string
		path       string
		key        string
		body       string
		wantStatus int
		wantCode   string
	}{
		// Wrong method on every route → 405 in the envelope.
		{"put jobs", http.MethodPut, "/v1/jobs", "kadmin", "", 405, CodeMethodNotAllowed},
		{"post job id", http.MethodPost, "/v1/jobs/job-000001", "kadmin", "", 405, CodeMethodNotAllowed},
		{"put tln", http.MethodPut, "/v1/jobs/job-000001/tln", "kadmin", "", 405, CodeMethodNotAllowed},
		{"get cancel", http.MethodGet, "/v1/jobs/job-000001/cancel", "kadmin", "", 405, CodeMethodNotAllowed},
		{"post events", http.MethodPost, "/v1/jobs/job-000001/events", "kadmin", "", 405, CodeMethodNotAllowed},
		{"post healthz", http.MethodPost, "/v1/healthz", "", "", 405, CodeMethodNotAllowed},
		{"post readyz", http.MethodPost, "/v1/readyz", "", "", 405, CodeMethodNotAllowed},
		{"post metrics", http.MethodPost, "/v1/metrics", "kadmin", "", 405, CodeMethodNotAllowed},
		{"delete cluster result", http.MethodDelete, "/v1/cluster/result/abc", "kadmin", "", 405, CodeMethodNotAllowed},
		{"get cluster compute", http.MethodGet, "/v1/cluster/compute", "kadmin", "", 405, CodeMethodNotAllowed},
		// Bad bodies → 400 invalid_request.
		{"garbage submit", http.MethodPost, "/v1/jobs", "ka", "{", 400, CodeInvalidRequest},
		{"empty spec", http.MethodPost, "/v1/jobs", "ka", `{"kind":"synth"}`, 400, CodeInvalidRequest},
		{"bad kind", http.MethodPost, "/v1/jobs", "ka", `{"kind":"wat","spec":{}}`, 400, CodeInvalidRequest},
		{"bad priority", http.MethodPost, "/v1/jobs", "ka", string(synthEnvelopeWithPriority(t, "urgent")), 400, CodeInvalidRequest},
		{"garbage compute", http.MethodPost, "/v1/cluster/compute", "kadmin", "{", 400, CodeInvalidRequest},
		// Missing or wrong credentials.
		{"no key submit", http.MethodPost, "/v1/jobs", "", `{}`, 401, CodeUnauthorized},
		{"no key list", http.MethodGet, "/v1/jobs", "", "", 401, CodeUnauthorized},
		{"no key get", http.MethodGet, "/v1/jobs/job-000001", "", "", 401, CodeUnauthorized},
		{"no key events", http.MethodGet, "/v1/jobs/job-000001/events", "", "", 401, CodeUnauthorized},
		{"no key tln", http.MethodGet, "/v1/jobs/job-000001/tln", "", "", 401, CodeUnauthorized},
		{"no key cancel", http.MethodPost, "/v1/jobs/job-000001/cancel", "", "", 401, CodeUnauthorized},
		{"no key metrics", http.MethodGet, "/v1/metrics", "", "", 401, CodeUnauthorized},
		{"no key cluster", http.MethodPost, "/v1/cluster/compute", "", "{}", 401, CodeUnauthorized},
		{"wrong key", http.MethodGet, "/v1/jobs", "nope", "", 403, CodeForbidden},
		{"tenant key on cluster", http.MethodPost, "/v1/cluster/compute", "ka", "{}", 403, CodeForbidden},
		// Unknown routes → 404 envelope.
		{"pre-v1 synth", http.MethodPost, "/synth", "ka", "{}", 404, CodeNotFound},
		{"unknown job", http.MethodGet, "/v1/jobs/job-999999", "ka", "", 404, CodeNotFound},
		// Malformed filters.
		{"empty tenant filter", http.MethodGet, "/v1/jobs?tenant=", "kadmin", "", 400, CodeInvalidRequest},
		{"empty state filter", http.MethodGet, "/v1/jobs?state=", "kadmin", "", 400, CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := httpDo(t, srv, tc.method, tc.path, tc.key, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("%s %s: status %d, want %d\n%s", tc.method, tc.path, resp.StatusCode, tc.wantStatus, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			wantEnvelope(t, body, tc.wantCode)
		})
	}

	// Probe routes stay open without credentials.
	for _, path := range []string{"/v1/healthz", "/v1/readyz"} {
		resp, body := httpDo(t, srv, http.MethodGet, path, "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s without key: status %d\n%s", path, resp.StatusCode, body)
		}
	}
}

func synthEnvelopeWithPriority(t *testing.T, priority string) []byte {
	t.Helper()
	return synthEnvelope(t, priority)
}

// TestTenantScopingAndListFilter covers job visibility: tenant keys see
// only their own jobs (foreign IDs answer 404, list auto-scopes), the
// admin key sees everything and can filter with ?tenant=.
func TestTenantScopingAndListFilter(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, Auth: testAuth(t)})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	alice := &Client{BaseURL: srv.URL, APIKey: "ka"}
	bob := &Client{BaseURL: srv.URL, APIKey: "kb"}
	admin := &Client{BaseURL: srv.URL, APIKey: "kadmin"}
	ctx := context.Background()

	ajob, err := alice.SubmitSynth(ctx, SynthSpec{BLIF: testBlif})
	if err != nil {
		t.Fatal(err)
	}
	if ajob.Tenant != "alice" {
		t.Fatalf("tenant = %q, want alice", ajob.Tenant)
	}
	bjob, err := bob.SubmitSynth(ctx, SynthSpec{BLIF: testBlif, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.WaitDone(ctx, ajob.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.WaitDone(ctx, bjob.ID); err != nil {
		t.Fatal(err)
	}

	// Foreign job IDs answer exactly like unknown ones.
	if _, err := bob.Job(ctx, ajob.ID); err == nil {
		t.Fatal("bob read alice's job")
	} else {
		var se *StatusError
		if !errors.As(err, &se) || se.StatusCode != http.StatusNotFound {
			t.Fatalf("cross-tenant get: %v, want 404", err)
		}
	}
	if _, err := bob.TLN(ctx, ajob.ID); err == nil {
		t.Fatal("bob fetched alice's netlist")
	}
	if err := bob.Cancel(ctx, ajob.ID); err == nil {
		t.Fatal("bob cancelled alice's job")
	}
	// The admin key sees it.
	if _, err := admin.Job(ctx, ajob.ID); err != nil {
		t.Fatalf("admin get: %v", err)
	}

	// Tenant keys are auto-scoped on list.
	al, err := alice.ListJobs(ctx, JobFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if al.Total != 1 || len(al.Jobs) != 1 || al.Jobs[0].ID != ajob.ID {
		t.Fatalf("alice list = %+v, want only her job", al)
	}
	// Naming another tenant is forbidden for non-admins.
	if _, err := bob.ListJobs(ctx, JobFilter{Tenant: "alice"}); !IsForbidden(err) {
		t.Fatalf("bob ?tenant=alice: %v, want forbidden", err)
	}
	// Naming yourself is allowed.
	if bl, err := bob.ListJobs(ctx, JobFilter{Tenant: "bob"}); err != nil || bl.Total != 1 {
		t.Fatalf("bob ?tenant=bob: %v %+v", err, bl)
	}
	// Admin sees all and filters.
	all, err := admin.ListJobs(ctx, JobFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if all.Total != 2 {
		t.Fatalf("admin total = %d, want 2", all.Total)
	}
	fl, err := admin.ListJobs(ctx, JobFilter{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Total != 1 || fl.Jobs[0].ID != ajob.ID {
		t.Fatalf("admin ?tenant=alice = %+v", fl)
	}
}

// TestPriorityValidatedAndRecorded pins the priority knob: unknown
// values are rejected at submit, valid ones ride on the job snapshot.
func TestPriorityValidatedAndRecorded(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	req := testRequest()
	req.Priority = "urgent"
	if _, err := m.Submit(req); err == nil {
		t.Fatal("unknown priority accepted")
	}
	req.Priority = PriorityHigh
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if job.Priority != PriorityHigh {
		t.Fatalf("priority = %q, want high", job.Priority)
	}
	// Default is normal.
	job2, err := m.Submit(Request{BLIF: testBlif, Options: testRequest().Options})
	if err != nil {
		t.Fatal(err)
	}
	if job2.Priority != PriorityNormal {
		t.Fatalf("default priority = %q, want normal", job2.Priority)
	}
}

// TestPriorityOrdersWithinTenant proves the lanes: with a single busy
// worker, a high-priority job submitted last dispatches before the
// normal-priority backlog queued ahead of it.
func TestPriorityOrdersWithinTenant(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 64, ExecDelay: 30 * time.Millisecond})
	// Occupy the worker.
	first, err := m.Submit(reqWithSeed(100))
	if err != nil {
		t.Fatal(err)
	}
	var normals []string
	for i := 0; i < 3; i++ {
		j, err := m.Submit(reqWithSeed(int64(200 + i)))
		if err != nil {
			t.Fatal(err)
		}
		normals = append(normals, j.ID)
	}
	hi := reqWithSeed(300)
	hi.Priority = PriorityHigh
	hjob, err := m.Submit(hi)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	hdone, err := m.Wait(ctx, hjob.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range normals {
		ndone, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !hdone.Started.Before(ndone.Started) {
			t.Fatalf("high-priority job started %v, after normal job %s at %v",
				hdone.Started, id, ndone.Started)
		}
	}
}

func reqWithSeed(seed int64) Request {
	req := testRequest()
	req.Options.Seed = seed
	return req
}

// TestQuotaRejectsWithRetryAfter is the admission-quota round trip: a
// tenant over its outstanding-job cap gets 429 quota_exceeded with a
// Retry-After header while another tenant keeps submitting, and the
// quota frees as jobs finish.
func TestQuotaRejectsWithRetryAfter(t *testing.T) {
	auth := testAuth(t,
		TenantConfig{Name: "alice", Key: "ka", MaxJobs: 2},
		TenantConfig{Name: "bob", Key: "kb"},
	)
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 64, Auth: auth, ExecDelay: 50 * time.Millisecond})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	alice := &Client{BaseURL: srv.URL, APIKey: "ka"}
	bob := &Client{BaseURL: srv.URL, APIKey: "kb"}
	ctx := context.Background()

	var ids []string
	for i := 0; i < 2; i++ {
		j, err := alice.SubmitSynth(ctx, SynthSpec{BLIF: testBlif, Seed: int64(10 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	_, err := alice.SubmitSynth(ctx, SynthSpec{BLIF: testBlif, Seed: 99})
	if !IsQuotaExceeded(err) {
		t.Fatalf("third submit: %v, want quota_exceeded", err)
	}
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("no StatusError in %v", err)
	}
	if se.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", se.StatusCode)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", se.RetryAfter)
	}
	if !errors.Is(se, &StatusError{Code: CodeQuotaExceeded}) {
		t.Fatal("errors.Is on the code template failed")
	}

	// The other tenant is unaffected.
	bj, err := bob.SubmitSynth(ctx, SynthSpec{BLIF: testBlif, Seed: 50})
	if err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}

	// The quota frees as alice's jobs finish.
	for _, id := range ids {
		if _, err := alice.WaitDone(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := alice.SubmitSynth(ctx, SynthSpec{BLIF: testBlif, Seed: 99}); err != nil {
		t.Fatalf("submit after quota freed: %v", err)
	}
	if _, err := bob.WaitDone(ctx, bj.ID); err != nil {
		t.Fatal(err)
	}

	snap := m.MetricsSnapshot()
	if snap["tenant_alice_quota_rejections"] < 1 {
		t.Fatalf("tenant_alice_quota_rejections = %d, want >= 1", snap["tenant_alice_quota_rejections"])
	}
}

// waitP95 returns the p95 queue wait (started - created) of the jobs.
func waitP95(t *testing.T, jobs []Job) time.Duration {
	t.Helper()
	waits := make([]time.Duration, 0, len(jobs))
	for _, j := range jobs {
		if j.Started.IsZero() {
			t.Fatalf("job %s never started", j.ID)
		}
		waits = append(waits, j.Started.Sub(j.Created))
	}
	sort.Slice(waits, func(i, k int) bool { return waits[i] < waits[k] })
	return waits[(len(waits)*95)/100]
}

// runStarvationRound floods the manager with heavy's backlog, then
// submits light's small batch, waits for light's jobs, and returns their
// p95 queue wait.
func runStarvationRound(t *testing.T, m *Manager, heavyJobs, lightJobs int) time.Duration {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	heavy := Caller{Tenant: "heavy"}
	light := Caller{Tenant: "light"}
	for i := 0; i < heavyJobs; i++ {
		if _, err := m.SubmitAs(heavy, reqWithSeed(int64(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	for i := 0; i < lightJobs; i++ {
		j, err := m.SubmitAs(light, reqWithSeed(int64(5000+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	var done []Job
	for _, id := range ids {
		j, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("light job %s ended %s (%s)", id, j.State, j.Error)
		}
		done = append(done, j)
	}
	return waitP95(t, done)
}

// TestWeightedFairPreventsStarvation is the acceptance scenario: tenant
// "heavy" floods the queue, tenant "light" submits a small batch after
// it. Under weighted-fair admission light's p95 queue wait stays within
// 5× its solo run (with a floor absorbing scheduler noise).
func TestWeightedFairPreventsStarvation(t *testing.T) {
	if testing.Short() {
		t.Skip("starvation scenario is timing-sensitive")
	}
	const (
		delay = 5 * time.Millisecond
		heavy = 200
		light = 10
		floor = 150 * time.Millisecond
	)
	base := Config{Workers: 2, QueueDepth: heavy + light + 8, ExecDelay: delay}

	solo := newTestManager(t, base)
	soloP95 := runStarvationRound(t, solo, 0, light)
	solo.Close()

	fair := newTestManager(t, base)
	fairP95 := runStarvationRound(t, fair, heavy, light)
	fair.Close()

	bound := 5 * soloP95
	if bound < 5*floor {
		bound = 5 * floor
	}
	t.Logf("light p95 wait: solo %v, fair %v (bound %v)", soloP95, fairP95, bound)
	if fairP95 > bound {
		t.Fatalf("fair p95 %v exceeds bound %v (solo %v)", fairP95, bound, soloP95)
	}
}

// TestRestartPreservesTenantOwnershipAndQuota replays a journaled
// backlog across a restart: the recovered job keeps its owning tenant,
// and its quota slot is re-registered so the tenant can't over-submit
// around a restart.
func TestRestartPreservesTenantOwnershipAndQuota(t *testing.T) {
	dir := t.TempDir()
	auth := testAuth(t, TenantConfig{Name: "alice", Key: "ka", MaxJobs: 1})
	st := openTestStore(t, dir)
	m := New(Config{Workers: 1, Store: st, Auth: auth, ExecDelay: 30 * time.Second})
	job, err := m.SubmitAs(Caller{Tenant: "alice"}, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if job.Tenant != "alice" {
		t.Fatalf("tenant = %q", job.Tenant)
	}
	// Close mid-run: the drain journals the job as interrupted.
	m.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	// The delay holds the replayed job, so it cannot finish and free the
	// slot before the over-quota submit below.
	m2 := New(Config{Workers: 1, Store: st2, Auth: auth, ExecDelay: time.Second})
	t.Cleanup(m2.Close)
	back, ok := m2.Get(job.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", job.ID)
	}
	if back.Tenant != "alice" {
		t.Fatalf("replayed tenant = %q, want alice", back.Tenant)
	}
	// The replayed job occupies alice's single quota slot immediately.
	if _, err := m2.SubmitAs(Caller{Tenant: "alice"}, reqWithSeed(77)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("submit over replayed backlog: %v, want quota exceeded", err)
	}
	// Once the recovered job finishes, the slot frees.
	done, err := m2.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("recovered job ended %s (%s)", done.State, done.Error)
	}
	if _, err := m2.SubmitAs(Caller{Tenant: "alice"}, reqWithSeed(77)); err != nil {
		t.Fatalf("submit after recovery drained: %v", err)
	}
}

// TestPreTenantJournalReplaysAsDefault pins the schema-v1 compatibility
// contract: journal records written before events carried tenancy have
// no tenant field and must replay under the default tenant — changing
// this would silently re-own old backlogs.
func TestPreTenantJournalReplaysAsDefault(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	req := testRequest()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := Digest(req)
	if err != nil {
		t.Fatal(err)
	}
	// A hand-written pre-tenancy submitted event: no Tenant, no Priority.
	if err := st.Append(store.Event{
		Type:    store.EventSubmitted,
		JobID:   "job-000042",
		Kind:    "synth",
		Digest:  digest,
		Request: raw,
		Unix:    time.Now().UnixNano(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	m := New(Config{Workers: 1, Store: st2})
	t.Cleanup(m.Close)
	back, ok := m.Get("job-000042")
	if !ok {
		t.Fatal("pre-tenant job not replayed")
	}
	if back.Tenant != DefaultTenant {
		t.Fatalf("replayed tenant = %q, want %q", back.Tenant, DefaultTenant)
	}
	done, err := m.Wait(context.Background(), "job-000042")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("replayed job ended %s (%s)", done.State, done.Error)
	}
}

// TestMetricsExposeTenantGauges pins the per-tenant metrics surface.
func TestMetricsExposeTenantGauges(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	job, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}
	snap := m.MetricsSnapshot()
	if snap["tenant_default_dispatched"] < 1 {
		t.Fatalf("tenant_default_dispatched = %d, want >= 1", snap["tenant_default_dispatched"])
	}
	if _, ok := snap["tenant_default_outstanding"]; !ok {
		t.Fatal("tenant_default_outstanding missing")
	}
}

// TestClusterPropagatesTenantOnFanOut boots an authenticated 3-peer
// ring and fans a sweep out as tenant "alice": the X-Tels-Tenant header
// on /v1/cluster/compute must carry ownership to remote peers, so their
// per-tenant accounting records alice — not default — as the tenant the
// forwarded points ran for, keeping quota and fairness bookkeeping
// coherent across the fleet.
func TestClusterPropagatesTenantOnFanOut(t *testing.T) {
	const clusterKey = "ck-fleet"
	mkAuth := func() *Auth {
		a := testAuth(t,
			TenantConfig{Name: "alice", Key: "ka", MaxJobs: 8},
			TenantConfig{Name: "ops", Key: "kadmin", Admin: true},
		)
		a.ClusterKey = clusterKey
		return a
	}
	nodes := startFleet(t, 3, cluster.Config{AuthToken: clusterKey}, func(i int, c *Config) {
		c.Auth = mkAuth()
	}, nil)

	job, err := nodes[0].m.SubmitAs(Caller{Tenant: "alice"}, clusterSweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	if job.Tenant != "alice" {
		t.Fatalf("tenant = %q", job.Tenant)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done, err := nodes[0].m.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("sweep ended %s (%s)", done.State, done.Error)
	}
	if done.Progress == nil || done.Progress.DonePoints != len(clusterSweepRequest().Sweep.Vs) {
		t.Fatalf("incomplete sweep: %+v", done.Progress)
	}

	// At least one non-submitting peer must have dispatched work under
	// alice's name — that's the header doing its job.
	var remote int64
	for _, n := range nodes[1:] {
		remote += n.m.MetricsSnapshot()["tenant_alice_dispatched"]
	}
	if remote == 0 {
		t.Fatal("no remote peer recorded alice dispatches; tenant header not propagated")
	}
	// And nothing should have leaked into the default tenant's ledger on
	// those peers beyond what they dispatched for themselves (none here).
	for i, n := range nodes[1:] {
		if d := n.m.MetricsSnapshot()["tenant_default_dispatched"]; d != 0 {
			t.Fatalf("peer %d dispatched %d jobs as default; forwarded work lost its tenant", i+1, d)
		}
	}
}

// TestOverloadedCarriesRetryAfter pins the 503 contract: a full queue
// answers overloaded with a Retry-After hint.
func TestOverloadedCarriesRetryAfter(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1, ExecDelay: 300 * time.Millisecond})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	// Fill the worker and the 1-deep queue, then overflow.
	var err error
	for i := 0; i < 8; i++ {
		_, err = c.SubmitSynth(ctx, SynthSpec{BLIF: testBlif, Seed: int64(400 + i)})
		if err != nil {
			break
		}
	}
	if !IsOverloaded(err) {
		t.Fatalf("overflow submit: %v, want overloaded", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.RetryAfter <= 0 {
		t.Fatalf("503 without Retry-After: %v", err)
	}
}
