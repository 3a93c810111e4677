package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tels/internal/cluster"
	"tels/internal/core"
)

// The wire API is versioned under /v1/. A submission is a kind-tagged
// spec union —
//
//	{"kind": "synth", "spec": {"blif": "...", "fanin": 3, ...}}
//	{"kind": "yield", "spec": {..synth fields.., "yield": {...}}}
//	{"kind": "sweep", "spec": {..synth fields.., "yield": {...}, "sweep": {"vs": [...]}}}
//	{"kind": "resyn", "spec": {..synth fields.., "yield": {...}, "resyn": {"target_yield": 0.99, ...}}}
//
// — so each kind owns its own spec shape instead of growing one flat
// struct. The pre-v1 flat routes (POST /synth, unversioned /jobs
// mirrors) are gone: every path outside /v1/ answers with the 404 error
// envelope.

// SynthSpec is the v1 wire form of the synthesis knobs shared by every
// job kind. It mirrors the cmd/tels flags; absent fields take the same
// defaults the CLI uses (ψ=3, δon=0, δoff=1, algebraic script, tels
// mapper, verification on).
type SynthSpec struct {
	BLIF      string `json:"blif"`
	Script    string `json:"script,omitempty"`
	Mapper    string `json:"mapper,omitempty"`
	Fanin     int    `json:"fanin,omitempty"`
	DeltaOn   *int   `json:"delta_on,omitempty"`
	DeltaOff  *int   `json:"delta_off,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	MaxWeight int    `json:"max_weight,omitempty"`
	// SkipVerify disables the equivalence check.
	SkipVerify bool `json:"skip_verify,omitempty"`
	// TimeoutMS bounds the job's run time in milliseconds (0 = server
	// default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// request converts the synthesis knobs to the typed job request.
func (s SynthSpec) request() Request {
	o := core.DefaultOptions()
	if s.Fanin != 0 {
		o.Fanin = s.Fanin
	}
	if s.DeltaOn != nil {
		o.DeltaOn = *s.DeltaOn
	}
	if s.DeltaOff != nil {
		o.DeltaOff = *s.DeltaOff
	}
	o.Seed = s.Seed
	o.MaxWeight = s.MaxWeight
	return Request{
		BLIF:       s.BLIF,
		Script:     s.Script,
		Mapper:     s.Mapper,
		Options:    o,
		SkipVerify: s.SkipVerify,
		Timeout:    time.Duration(s.TimeoutMS) * time.Millisecond,
	}
}

// YieldJobSpec is the v1 spec of kind "yield": synthesis knobs plus the
// Monte-Carlo analysis configuration.
type YieldJobSpec struct {
	SynthSpec
	Yield YieldSpec `json:"yield"`
}

// SweepJobSpec is the v1 spec of kind "sweep": synthesis knobs, the base
// yield point, and the grid fanned across the worker pool.
type SweepJobSpec struct {
	SynthSpec
	Yield YieldSpec `json:"yield"`
	Sweep SweepSpec `json:"sweep"`
}

// ResynJobSpec is the v1 spec of kind "resyn": synthesis knobs, the
// estimator configuration, and the selective re-synthesis loop knobs.
type ResynJobSpec struct {
	SynthSpec
	Yield YieldSpec `json:"yield"`
	Resyn ResynSpec `json:"resyn"`
}

// SubmitEnvelope is the kind-tagged v1 submission body.
type SubmitEnvelope struct {
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec"`
	// Priority orders the job within the submitting tenant's queue:
	// "high", "normal" (default), or "low".
	Priority string `json:"priority,omitempty"`
}

// Request decodes the envelope's spec according to its kind.
func (e SubmitEnvelope) Request() (Request, error) {
	req, err := e.decodeSpec()
	if err != nil {
		return Request{}, err
	}
	req.Priority = e.Priority
	return req, nil
}

func (e SubmitEnvelope) decodeSpec() (Request, error) {
	kind := e.Kind
	if kind == "" {
		kind = "synth"
	}
	if len(e.Spec) == 0 {
		return Request{}, fmt.Errorf("service: submission has no spec")
	}
	var req Request
	switch kind {
	case "synth":
		var s SynthSpec
		if err := json.Unmarshal(e.Spec, &s); err != nil {
			return Request{}, fmt.Errorf("service: decode synth spec: %w", err)
		}
		req = s.request()
	case "yield":
		var s YieldJobSpec
		if err := json.Unmarshal(e.Spec, &s); err != nil {
			return Request{}, fmt.Errorf("service: decode yield spec: %w", err)
		}
		req = s.SynthSpec.request()
		req.Kind = "yield"
		req.Yield = s.Yield
	case "sweep":
		var s SweepJobSpec
		if err := json.Unmarshal(e.Spec, &s); err != nil {
			return Request{}, fmt.Errorf("service: decode sweep spec: %w", err)
		}
		req = s.SynthSpec.request()
		req.Kind = "sweep"
		req.Yield = s.Yield
		req.Sweep = s.Sweep
	case "resyn":
		var s ResynJobSpec
		if err := json.Unmarshal(e.Spec, &s); err != nil {
			return Request{}, fmt.Errorf("service: decode resyn spec: %w", err)
		}
		req = s.SynthSpec.request()
		req.Kind = "resyn"
		req.Yield = s.Yield
		req.Resyn = s.Resyn
	default:
		return Request{}, fmt.Errorf("service: unknown job kind %q (want synth, yield, sweep, or resyn)", kind)
	}
	// An absent delta_off is already the default 1, so a smaller value
	// was sent explicitly; Normalize would otherwise rewrite 0 to 1.
	if req.Options.DeltaOff < 1 {
		return Request{}, fmt.Errorf("service: delta_off %d < 1", req.Options.DeltaOff)
	}
	return req, nil
}

// Error codes of the uniform JSON error envelope. Every error response
// has the body {"error": {"code": "...", "message": "..."}}.
const (
	CodeInvalidRequest   = "invalid_request"    // malformed body or spec (400)
	CodeUnauthorized     = "unauthorized"       // missing credentials (401)
	CodeForbidden        = "forbidden"          // wrong or insufficient credentials (403)
	CodeNotFound         = "not_found"          // unknown job or route (404)
	CodeMethodNotAllowed = "method_not_allowed" // route exists, method doesn't (405)
	CodeConflict         = "conflict"           // job not in a usable state (409)
	CodeTooLarge         = "payload_too_large"  // body over the size cap (413)
	CodeQuotaExceeded    = "quota_exceeded"     // tenant over its admission quota (429)
	CodeOverloaded       = "overloaded"         // queue full or shutting down (503)
	CodeInternal         = "internal"           // unexpected server failure (500)
)

// overloadedRetryAfter is the Retry-After suggestion on 503s: the queue
// drains at worker speed, so a short pause is enough.
const overloadedRetryAfter = time.Second

// APIError is the wire error payload.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// maxBodyBytes bounds request bodies; the largest MCNC benchmark is well
// under 1 MiB of BLIF.
const maxBodyBytes = 8 << 20

// readRequestBody reads a request body of at most maxBodyBytes. On
// failure it answers 400 (unreadable) or 413 (too large) and returns
// false.
func readRequestBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("read body: %w", err))
		return nil, false
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, fmt.Errorf("body exceeds %d bytes", maxBodyBytes))
		return nil, false
	}
	return body, true
}

// NewHandler exposes the manager as a JSON-over-HTTP API:
//
//	POST   /v1/jobs             submit a job (kind-tagged SubmitEnvelope) → Job
//	GET    /v1/jobs             list retained jobs (?state=, ?kind=, ?tenant=, ?limit=N)
//	GET    /v1/jobs/{id}        job status (sweep jobs include progress)
//	GET    /v1/jobs/{id}/events SSE stream of state transitions and progress
//	GET    /v1/jobs/{id}/tln    the synthesized .tln as text/plain
//	POST   /v1/jobs/{id}/cancel cancel a queued or running job
//	DELETE /v1/jobs/{id}        same as cancel
//	GET    /v1/healthz          liveness probe
//	GET    /v1/readyz           readiness probe (cmd/telsd 503s it during WAL replay)
//	GET    /v1/metrics          expvar-style counters
//
// plus the cluster-internal peer surface:
//
//	GET  /v1/cluster/result/{digest}  cached/persisted result, 404 on miss
//	PUT  /v1/cluster/result/{digest}  accept a result computed by a non-owner peer
//	POST /v1/cluster/compute          run an internal Request to completion → Job
//
// With the manager's Config.Auth set, every route except healthz and
// readyz requires "Authorization: Bearer <key>": a missing credential
// is 401 unauthorized, an unknown one 403 forbidden, and jobs are
// scoped to the key's tenant (admin keys and the shared cluster key
// see everything). Without Auth the daemon is open: every caller acts
// as an admin of the "default" tenant, preserving the pre-tenancy
// behavior.
//
// Everything else — including the removed pre-v1 routes (POST /synth,
// unversioned /jobs, /healthz, /metrics) — gets a 404. Errors are
// always {"error": {"code", "message"}}, including 405s the routing
// layer itself produces.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	// owned hides other tenants' jobs from non-admin callers: a foreign
	// job ID answers exactly like a nonexistent one, so tenants can't
	// probe each other's job namespace.
	owned := func(w http.ResponseWriter, r *http.Request) (Job, bool) {
		id := r.PathValue("id")
		job, ok := m.Get(id)
		if !ok || !callerFrom(r.Context()).Sees(job.Tenant) {
			writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("unknown job %q", id))
			return Job{}, false
		}
		return job, true
	}

	submit := func(w http.ResponseWriter, r *http.Request, decode func([]byte) (Request, error)) {
		body, ok := readRequestBody(w, r)
		if !ok {
			return
		}
		req, err := decode(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		job, err := m.SubmitAs(callerFrom(r.Context()), req)
		if err != nil {
			var qe *QuotaError
			switch {
			case errors.As(err, &qe):
				w.Header().Set("Retry-After", retryAfterValue(qe.RetryAfter))
				writeError(w, http.StatusTooManyRequests, CodeQuotaExceeded, err)
			case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed):
				w.Header().Set("Retry-After", retryAfterValue(overloadedRetryAfter))
				writeError(w, http.StatusServiceUnavailable, CodeOverloaded, err)
			default:
				writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			}
			return
		}
		writeJSON(w, http.StatusAccepted, job)
	}
	// list supports ?state=, ?kind=, ?tenant=, and ?limit=N so an
	// operator can inspect a recovered backlog (e.g. /v1/jobs?state=queued)
	// without dumping every retained job. limit keeps the newest N
	// matches. Non-admin callers only ever see their own tenant's jobs;
	// naming another tenant is 403.
	list := func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		// An empty-but-present value (?state=) is a malformed filter, not
		// an absent one: silently matching everything would hide typos
		// like "?state=&kind=synth" from scripts.
		for _, k := range []string{"state", "kind", "limit", "tenant"} {
			if q.Has(k) && q.Get(k) == "" {
				writeError(w, http.StatusBadRequest, CodeInvalidRequest,
					fmt.Errorf("empty %s parameter (omit it to match all)", k))
				return
			}
		}
		state := State(q.Get("state"))
		switch state {
		case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		default:
			writeError(w, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Errorf("unknown state %q (want queued, running, done, failed, or cancelled)", state))
			return
		}
		kind := q.Get("kind")
		switch kind {
		case "", "synth", "yield", "sweep", "resyn":
		default:
			writeError(w, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Errorf("unknown job kind %q (want synth, yield, sweep, or resyn)", kind))
			return
		}
		caller := callerFrom(r.Context())
		tenant := q.Get("tenant")
		if tenant != "" && !caller.Sees(tenant) {
			writeError(w, http.StatusForbidden, CodeForbidden,
				fmt.Errorf("tenant %q may not list tenant %q", caller.Tenant, tenant))
			return
		}
		if !caller.Admin {
			tenant = caller.Tenant // tenant keys are always scoped to themselves
		}
		limit := 0
		if s := q.Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("bad limit %q", s))
				return
			}
			limit = n
		}
		jobs := make([]Job, 0)
		for _, job := range m.List() {
			if (state == "" || job.State == state) && (kind == "" || job.Kind == kind) && (tenant == "" || job.Tenant == tenant) {
				jobs = append(jobs, job)
			}
		}
		total := len(jobs)
		if limit > 0 && len(jobs) > limit {
			jobs = jobs[len(jobs)-limit:]
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs, "total": total})
	}
	get := func(w http.ResponseWriter, r *http.Request) {
		job, ok := owned(w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, job)
	}
	events := func(w http.ResponseWriter, r *http.Request) {
		job, ok := owned(w, r)
		if !ok {
			return
		}
		fl, okf := w.(http.Flusher)
		if !okf {
			writeError(w, http.StatusInternalServerError, CodeInternal, fmt.Errorf("response writer cannot stream"))
			return
		}
		ch, stop, oks := m.Subscribe(job.ID)
		if !oks {
			writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("unknown job %q", job.ID))
			return
		}
		defer stop()
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		for {
			select {
			case ev, open := <-ch:
				if !open {
					return // consumer fell behind and was dropped; it re-syncs by reconnecting
				}
				data, err := json.Marshal(ev)
				if err != nil {
					return
				}
				fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
				fl.Flush()
				if ev.Type == eventEnd {
					return
				}
			case <-r.Context().Done():
				return
			}
		}
	}
	tln := func(w http.ResponseWriter, r *http.Request) {
		job, ok := owned(w, r)
		if !ok {
			return
		}
		if job.State != StateDone || job.Result == nil {
			writeError(w, http.StatusConflict, CodeConflict, fmt.Errorf("job %s is %s, not done", job.ID, job.State))
			return
		}
		if job.Result.TLN == "" {
			writeError(w, http.StatusConflict, CodeConflict, fmt.Errorf("job %s (%s) has no single netlist", job.ID, job.Kind))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, job.Result.TLN)
	}
	cancel := func(w http.ResponseWriter, r *http.Request) {
		job, ok := owned(w, r)
		if !ok {
			return
		}
		cancelled := m.Cancel(job.ID)
		job, _ = m.Get(job.ID)
		writeJSON(w, http.StatusOK, map[string]any{"cancelled": cancelled, "job": job})
	}
	healthz := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "workers": m.Workers()})
	}
	// readyz answers 200 once this handler serves at all: a manager that
	// constructed has finished WAL replay. cmd/telsd fronts this handler
	// with a boot gate that 503s readyz (while keeping healthz green)
	// until construction completes, so load balancers and cluster peers
	// don't route to a daemon still replaying its journal.
	readyz := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "workers": m.Workers()})
	}
	metrics := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.MetricsSnapshot())
	}

	// Cluster-internal surface: peers exchange results and work on it.
	clusterGet := func(w http.ResponseWriter, r *http.Request) {
		digest := r.PathValue("digest")
		res, ok := m.CachedResult(digest)
		if !ok {
			writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("no result for digest %q", digest))
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
	clusterPut := func(w http.ResponseWriter, r *http.Request) {
		body, ok := readRequestBody(w, r)
		if !ok {
			return
		}
		var res Result
		if err := json.Unmarshal(body, &res); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("decode result: %w", err))
			return
		}
		m.AcceptResult(r.PathValue("digest"), res)
		w.WriteHeader(http.StatusNoContent)
	}
	clusterCompute := func(w http.ResponseWriter, r *http.Request) {
		body, ok := readRequestBody(w, r)
		if !ok {
			return
		}
		var req Request
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("decode request: %w", err))
			return
		}
		// Synchronous on purpose: the caller cancelling (r.Context())
		// cancels the job, so a hedge loser releases this peer's worker.
		// The tenant header attributes the fanned-out work to the tenant
		// that submitted the sweep on the coordinating peer.
		job, err := m.ComputeSyncAs(r.Context(), r.Header.Get(cluster.TenantHeader), req)
		if err != nil {
			if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
				writeError(w, http.StatusServiceUnavailable, CodeOverloaded, err)
				return
			}
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, job)
	}

	// v1 surface.
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		submit(w, r, func(body []byte) (Request, error) {
			var env SubmitEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				return Request{}, fmt.Errorf("decode submission: %w", err)
			}
			return env.Request()
		})
	})
	mux.HandleFunc("GET /v1/jobs", list)
	mux.HandleFunc("GET /v1/jobs/{id}", get)
	mux.HandleFunc("GET /v1/jobs/{id}/events", events)
	mux.HandleFunc("GET /v1/jobs/{id}/tln", tln)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", cancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", cancel)
	mux.HandleFunc("GET /v1/healthz", healthz)
	mux.HandleFunc("GET /v1/readyz", readyz)
	mux.HandleFunc("GET /v1/metrics", metrics)
	mux.HandleFunc("GET /v1/cluster/result/{digest}", clusterGet)
	mux.HandleFunc("PUT /v1/cluster/result/{digest}", clusterPut)
	mux.HandleFunc("POST /v1/cluster/compute", clusterCompute)

	// No catch-all route: the mux's native 404 (unknown path) and 405
	// (known path, wrong method) answers are rewritten into the JSON
	// envelope by envelopeRouting below. Registering "/" here would
	// shadow the method mismatch and turn every wrong-method request
	// into a 404.
	return envelopeRouting(withAuth(m.Auth(), mux))
}

// callerKey stores the authenticated Caller in the request context.
type callerKeyType struct{}

var callerKey callerKeyType

// callerFrom recovers the authenticated principal; requests that never
// passed the auth middleware (direct handler tests) act as the open-mode
// admin, matching a keyless daemon.
func callerFrom(ctx context.Context) Caller {
	if c, ok := ctx.Value(callerKey).(Caller); ok {
		return c
	}
	return Caller{Tenant: DefaultTenant, Admin: true}
}

// withAuth authenticates every request against the key table and stores
// the resulting Caller in the context. Probe routes stay open so load
// balancers need no credentials. The cluster-internal surface requires
// an admin principal (the shared cluster key or an admin tenant key) —
// a plain tenant key must not be able to push results or run arbitrary
// internal requests on a peer.
func withAuth(auth *Auth, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" || r.URL.Path == "/v1/readyz" {
			next.ServeHTTP(w, r)
			return
		}
		caller := Caller{Tenant: DefaultTenant, Admin: true}
		if !auth.Open() {
			hdr := r.Header.Get("Authorization")
			if hdr == "" {
				writeError(w, http.StatusUnauthorized, CodeUnauthorized,
					fmt.Errorf("missing Authorization header (want Bearer <api-key>)"))
				return
			}
			token, ok := strings.CutPrefix(hdr, "Bearer ")
			if !ok {
				writeError(w, http.StatusUnauthorized, CodeUnauthorized,
					fmt.Errorf("malformed Authorization header (want Bearer <api-key>)"))
				return
			}
			caller, ok = auth.Authenticate(strings.TrimSpace(token))
			if !ok {
				writeError(w, http.StatusForbidden, CodeForbidden, fmt.Errorf("unknown API key"))
				return
			}
		}
		if strings.HasPrefix(r.URL.Path, "/v1/cluster/") && !caller.Admin {
			writeError(w, http.StatusForbidden, CodeForbidden,
				fmt.Errorf("cluster routes require the cluster key or an admin key"))
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), callerKey, caller)))
	})
}

// envelopeRouting converts the bare text/plain 404s and 405s Go's
// ServeMux writes for unmatched paths and method-pattern mismatches
// into the uniform JSON error envelope, so every error on the surface —
// routing-layer ones included — has the same shape. Handler-written
// 404s (unknown job IDs) already carry the envelope and are recognized
// by their application/json Content-Type; those pass through untouched.
func envelopeRouting(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w, req: r}, r)
	})
}

// envelopeWriter intercepts plain-text WriteHeader(404/405): it
// replaces the mux's status line and body with the JSON envelope and
// swallows the original body bytes. Every other status passes through.
type envelopeWriter struct {
	http.ResponseWriter
	req       *http.Request
	rewrote   bool // an envelope was written; swallow the original body
	committed bool
}

func (ew *envelopeWriter) WriteHeader(status int) {
	if ew.committed {
		return
	}
	ew.committed = true
	routing := status == http.StatusMethodNotAllowed || status == http.StatusNotFound
	if routing && !strings.HasPrefix(ew.Header().Get("Content-Type"), "application/json") {
		ew.rewrote = true
		// The mux already set Content-Type/Allow on the shared header map;
		// writeError overrides Content-Type, Allow stays — it's correct.
		if status == http.StatusMethodNotAllowed {
			writeError(ew.ResponseWriter, status, CodeMethodNotAllowed,
				fmt.Errorf("method %s not allowed on %s", ew.req.Method, ew.req.URL.Path))
		} else {
			writeError(ew.ResponseWriter, status, CodeNotFound,
				fmt.Errorf("no route %s %s", ew.req.Method, ew.req.URL.Path))
		}
		return
	}
	ew.ResponseWriter.WriteHeader(status)
}

func (ew *envelopeWriter) Write(p []byte) (int, error) {
	if !ew.committed {
		ew.WriteHeader(http.StatusOK)
	}
	if ew.rewrote {
		return len(p), nil // discard the mux's plain-text body
	}
	return ew.ResponseWriter.Write(p)
}

// Flush passes streaming through the interceptor — the SSE route needs
// the underlying Flusher.
func (ew *envelopeWriter) Flush() {
	if fl, ok := ew.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// retryAfterValue renders a Retry-After header in whole seconds,
// rounding up so "retry after 200ms" never becomes "retry now".
func retryAfterValue(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]APIError{
		"error": {Code: code, Message: err.Error()},
	})
}
