package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is a minimal HTTP client for a telsd daemon, used by the
// cmd/tels -server round-trip mode, cmd/telsim sweep, and tests. It
// speaks the versioned /v1/ API.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://localhost:8455".
	BaseURL string
	// APIKey, when set, is sent as "Authorization: Bearer <key>" on
	// every request. Leave empty against an open (keyless) daemon.
	APIKey string
	// PollInterval is Wait's initial poll spacing (default 50 ms); each
	// subsequent poll backs off exponentially toward PollMaxInterval.
	PollInterval time.Duration
	// PollMaxInterval caps the backed-off poll spacing (default 1 s).
	PollMaxInterval time.Duration
}

// StatusError is a decoded API error envelope; errors.As against it
// gives callers the machine-readable code, and errors.Is matches a
// template carrying just a Code (see the Is method).
type StatusError struct {
	StatusCode int
	Code       string
	Message    string
	// RetryAfter is the server's Retry-After suggestion (429
	// quota_exceeded and 503 overloaded responses); zero when absent.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("service: server returned %d (%s): %s", e.StatusCode, e.Code, e.Message)
	}
	return fmt.Sprintf("service: server returned %d: %s", e.StatusCode, e.Message)
}

// Is lets errors.Is match on the machine-readable fields alone:
// errors.Is(err, &StatusError{Code: CodeQuotaExceeded}) is true for any
// quota error regardless of its message. A zero field in the target
// matches anything.
func (e *StatusError) Is(target error) bool {
	t, ok := target.(*StatusError)
	if !ok {
		return false
	}
	return (t.StatusCode == 0 || t.StatusCode == e.StatusCode) &&
		(t.Code == "" || t.Code == e.Code)
}

// errHasCode reports whether err carries the given envelope code.
func errHasCode(err error, code string) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == code
}

// IsQuotaExceeded reports whether err is a 429 quota_exceeded rejection
// (the tenant is over its admission quota; retry after se.RetryAfter).
func IsQuotaExceeded(err error) bool { return errHasCode(err, CodeQuotaExceeded) }

// IsUnauthorized reports whether err is a 401 (no credentials sent).
func IsUnauthorized(err error) bool { return errHasCode(err, CodeUnauthorized) }

// IsForbidden reports whether err is a 403 (wrong or insufficient key).
func IsForbidden(err error) bool { return errHasCode(err, CodeForbidden) }

// IsOverloaded reports whether err is a 503 overloaded rejection.
func IsOverloaded(err error) bool { return errHasCode(err, CodeOverloaded) }

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// authorize attaches the client's API key, if any.
func (c *Client) authorize(req *http.Request) {
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
}

// SubmitEnvelope posts a kind-tagged v1 submission and returns the
// accepted job.
func (c *Client) SubmitEnvelope(ctx context.Context, env SubmitEnvelope) (Job, error) {
	body, err := json.Marshal(env)
	if err != nil {
		return Job{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/v1/jobs"), bytes.NewReader(body))
	if err != nil {
		return Job{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	var job Job
	if err := c.doJSON(req, http.StatusAccepted, &job); err != nil {
		return Job{}, err
	}
	return job, nil
}

// SubmitSynth posts a plain synthesis job.
func (c *Client) SubmitSynth(ctx context.Context, spec SynthSpec) (Job, error) {
	return c.submitSpec(ctx, "synth", spec)
}

// SubmitYield posts a yield-analysis job.
func (c *Client) SubmitYield(ctx context.Context, spec YieldJobSpec) (Job, error) {
	return c.submitSpec(ctx, "yield", spec)
}

// SubmitSweep posts a sweep job.
func (c *Client) SubmitSweep(ctx context.Context, spec SweepJobSpec) (Job, error) {
	return c.submitSpec(ctx, "sweep", spec)
}

// SubmitResyn posts a selective re-synthesis job.
func (c *Client) SubmitResyn(ctx context.Context, spec ResynJobSpec) (Job, error) {
	return c.submitSpec(ctx, "resyn", spec)
}

func (c *Client) submitSpec(ctx context.Context, kind string, spec any) (Job, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return Job{}, err
	}
	return c.SubmitEnvelope(ctx, SubmitEnvelope{Kind: kind, Spec: raw})
}

// JobFilter narrows ListJobs. Zero fields don't filter; Limit keeps the
// newest N matches. Tenant filters by owner (admin keys only; tenant
// keys are always scoped to their own jobs server-side).
type JobFilter struct {
	State  State
	Kind   string
	Tenant string
	Limit  int
}

// JobList is the job-list response: the (possibly limited) matching
// jobs plus the total match count before the limit.
type JobList struct {
	Jobs  []Job `json:"jobs"`
	Total int   `json:"total"`
}

// ListJobs fetches the retained jobs matching the filter.
func (c *Client) ListJobs(ctx context.Context, f JobFilter) (JobList, error) {
	q := url.Values{}
	if f.State != "" {
		q.Set("state", string(f.State))
	}
	if f.Kind != "" {
		q.Set("kind", f.Kind)
	}
	if f.Tenant != "" {
		q.Set("tenant", f.Tenant)
	}
	if f.Limit > 0 {
		q.Set("limit", strconv.Itoa(f.Limit))
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return JobList{}, err
	}
	var out JobList
	if err := c.doJSON(req, http.StatusOK, &out); err != nil {
		return JobList{}, err
	}
	return out, nil
}

// Job fetches the current snapshot of a job (sweep jobs include their
// partial progress).
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id), nil)
	if err != nil {
		return Job{}, err
	}
	var job Job
	if err := c.doJSON(req, http.StatusOK, &job); err != nil {
		return Job{}, err
	}
	return job, nil
}

// WaitDone polls until the job reaches a terminal state or ctx expires.
func (c *Client) WaitDone(ctx context.Context, id string) (Job, error) {
	return c.Wait(ctx, id, nil)
}

// Wait polls until the job reaches a terminal state or ctx expires,
// invoking observe (if non-nil) on every snapshot along the way. Polls
// start at PollInterval and back off exponentially (with jitter, so a
// herd of waiters desynchronizes) up to PollMaxInterval: short jobs are
// noticed quickly, long sweeps don't hammer the daemon, and ctx
// cancellation is honored between polls.
func (c *Client) Wait(ctx context.Context, id string, observe func(Job)) (Job, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	maxInterval := c.PollMaxInterval
	if maxInterval <= 0 {
		maxInterval = time.Second
	}
	if maxInterval < interval {
		maxInterval = interval
	}
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			// Cancellation mid-poll surfaces as a transport error wrapping
			// the context sentinel; normalize it so callers always see
			// ctx.Err() wherever the cancel landed.
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
				return Job{}, cerr
			}
			// The daemon asked us to come back later (e.g. a 503 during a
			// restart's WAL replay): honor Retry-After instead of failing
			// the wait. Other errors — not-found, auth — stay fatal.
			var se *StatusError
			if errors.As(err, &se) && se.RetryAfter > 0 &&
				(se.StatusCode == http.StatusServiceUnavailable || se.StatusCode == http.StatusTooManyRequests) {
				select {
				case <-time.After(se.RetryAfter):
					continue
				case <-ctx.Done():
					return Job{}, ctx.Err()
				}
			}
			return Job{}, err
		}
		if observe != nil {
			observe(job)
		}
		if job.State.Terminal() {
			return job, nil
		}
		// ±20% jitter around the current interval.
		sleep := time.Duration(float64(interval) * (0.8 + 0.4*rand.Float64()))
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return Job{}, ctx.Err()
		}
		interval *= 2
		if interval > maxInterval {
			interval = maxInterval
		}
	}
}

// Watch follows a job over the SSE stream (/v1/jobs/{id}/events),
// invoking observe (if non-nil) on every event — the initial snapshot,
// each state transition, and every sweep-point or resyn-iteration
// progress increment — and returns the terminal job. If the stream
// cannot be established or drops mid-job (a proxy that buffers SSE, a
// subscriber overrun on the daemon), Watch degrades to the polling Wait
// loop, so callers always get the terminal snapshot.
func (c *Client) Watch(ctx context.Context, id string, observe func(JobEvent)) (Job, error) {
	job, done, err := c.watchStream(ctx, id, observe)
	if done {
		return job, err
	}
	if ctx.Err() != nil {
		return Job{}, ctx.Err()
	}
	return c.Wait(ctx, id, func(j Job) {
		if observe != nil {
			observe(JobEvent{Type: eventSnapshot, Job: &j})
		}
	})
}

// watchStream runs one SSE connection. done=false means "fall back to
// polling" (stream unavailable or dropped before the end event).
func (c *Client) watchStream(ctx context.Context, id string, observe func(JobEvent)) (Job, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id+"/events"), nil)
	if err != nil {
		return Job{}, false, nil
	}
	req.Header.Set("Accept", "text/event-stream")
	c.authorize(req)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return Job{}, false, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden {
		// Fatal answers polling would only repeat — surface them now.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return Job{}, true, apiError(resp, body)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		return Job{}, false, nil
	}

	var last Job
	haveLast := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue // id:/event: lines and blank separators
		}
		var ev JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return Job{}, false, nil
		}
		if observe != nil {
			observe(ev)
		}
		if ev.Job != nil {
			last, haveLast = *ev.Job, true
		}
		if ev.Type == eventEnd && haveLast {
			return last, true, nil
		}
	}
	if haveLast && last.State.Terminal() {
		// The stream closed right after delivering a terminal snapshot
		// (e.g. subscribing to an already-finished job).
		return last, true, nil
	}
	return Job{}, false, nil
}

// TLN fetches the finished job's threshold netlist as text.
func (c *Client) TLN(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id+"/tln"), nil)
	if err != nil {
		return "", err
	}
	c.authorize(req)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", apiError(resp, body)
	}
	return string(body), nil
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/v1/jobs/"+id+"/cancel"), nil)
	if err != nil {
		return err
	}
	return c.doJSON(req, http.StatusOK, &struct{}{})
}

// Metrics fetches the daemon's counter snapshot.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/metrics"), nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	if err := c.doJSON(req, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Client) doJSON(req *http.Request, wantStatus int, out any) error {
	c.authorize(req)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return apiError(resp, body)
	}
	return json.Unmarshal(body, out)
}

func apiError(resp *http.Response, body []byte) error {
	se := &StatusError{StatusCode: resp.StatusCode}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	// v1 envelope: {"error": {"code", "message"}}.
	var v1 struct {
		Error APIError `json:"error"`
	}
	if json.Unmarshal(body, &v1) == nil && v1.Error.Message != "" {
		se.Code, se.Message = v1.Error.Code, v1.Error.Message
		return se
	}
	se.Message = strings.TrimSpace(string(body))
	return se
}
