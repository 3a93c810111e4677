package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The transport speaks the daemon's cluster-internal v1 endpoints. The
// payloads are opaque to this package: results and compute requests are
// JSON produced and consumed by internal/service on both ends.
//
//	GET  /v1/cluster/result/{digest}  persisted-or-cached result bytes, 404 if absent
//	PUT  /v1/cluster/result/{digest}  store a result computed by a non-owner
//	POST /v1/cluster/compute          run one job to completion, return its Job JSON

// Classified transport errors. ErrUnavailable covers everything the
// caller should treat as "peer down or saturated" — connection
// failures, 5xx, and queue-full 503s — i.e. retry with backoff or steal
// the work back locally. ErrBusy narrows ErrUnavailable (errors.Is
// matches both) to a live peer that answered 503: saturation steers
// retries and stealing exactly like unreachability, but it must not
// count toward the breaker, or a loaded fleet talks itself into marking
// healthy peers dead. ErrNotFound is a clean cache miss.
var (
	ErrNotFound    = errors.New("cluster: result not found on peer")
	ErrUnavailable = errors.New("cluster: peer unavailable")
	ErrBusy        = fmt.Errorf("%w: peer saturated", ErrUnavailable)
)

// TenantHeader carries the originating tenant on peer-to-peer compute
// calls, so the serving peer schedules the fanned-out work under the
// tenant that submitted it.
const TenantHeader = "X-Tels-Tenant"

// Transport is the raw HTTP client for peer-to-peer calls.
type Transport struct {
	client *http.Client
	// Auth, when set, is the shared cluster bearer token attached to
	// every peer call (telsd -cluster-key); empty sends no credentials,
	// matching an open-mode fleet.
	Auth string
}

// authorize attaches the shared cluster credential, if any.
func (t *Transport) authorize(req *http.Request) {
	if t.Auth != "" {
		req.Header.Set("Authorization", "Bearer "+t.Auth)
	}
}

// NewTransport builds a transport on a dedicated HTTP client with sane
// connection pooling (the default client's shared pool would let an
// unrelated slow download starve cluster traffic).
func NewTransport() *Transport {
	return &Transport{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     60 * time.Second,
	}}}
}

func peerURL(addr, path string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimRight(addr, "/") + path
	}
	return "http://" + addr + path
}

// classify folds an http round-trip outcome into the package's error
// vocabulary. A context error stays a context error so cancellation and
// deadline handling upstream keep working.
func classify(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// GetResult fetches the peer's cached or persisted result for a digest.
func (t *Transport) GetResult(ctx context.Context, addr, digest string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL(addr, "/v1/cluster/result/"+digest), nil)
	if err != nil {
		return nil, err
	}
	t.authorize(req)
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, classify(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, classify(err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return body, nil
	case resp.StatusCode == http.StatusNotFound:
		return nil, ErrNotFound
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusServiceUnavailable:
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, respError(resp.StatusCode, body))
	}
	return nil, fmt.Errorf("cluster: %s", respError(resp.StatusCode, body))
}

// PutResult pushes a freshly computed result to its owner peer, so the
// owner can serve future cache-fill requests for a digest it never
// computed itself.
func (t *Transport) PutResult(ctx context.Context, addr, digest string, result []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peerURL(addr, "/v1/cluster/result/"+digest), bytes.NewReader(result))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	t.authorize(req)
	resp, err := t.client.Do(req)
	if err != nil {
		return classify(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent:
		return nil
	case resp.StatusCode >= 500:
		return fmt.Errorf("%w: %s", ErrUnavailable, respError(resp.StatusCode, body))
	}
	return fmt.Errorf("cluster: %s", respError(resp.StatusCode, body))
}

// Compute runs one job to completion on the peer: the body is the
// service's internal Request JSON, the response the terminal Job JSON.
// The request is synchronous on purpose — cancelling ctx tears down the
// connection, which the serving peer observes and cancels the job, so a
// hedge loser releases the remote worker instead of leaking it. A
// non-empty tenant is attached via TenantHeader, so per-tenant admission
// holds on the serving peer.
func (t *Transport) Compute(ctx context.Context, addr, tenant string, request []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peerURL(addr, "/v1/cluster/compute"), bytes.NewReader(request))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	t.authorize(req)
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, classify(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, classify(err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return body, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		// Queue full, replaying its journal, or shutting down: the peer
		// answered, so it is saturated — not dead.
		return nil, fmt.Errorf("%w: %s", ErrBusy, respError(resp.StatusCode, body))
	case resp.StatusCode >= 500:
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, respError(resp.StatusCode, body))
	}
	return nil, fmt.Errorf("cluster: compute rejected: %s", respError(resp.StatusCode, body))
}

// respError extracts the v1 error envelope's message, falling back to
// the raw body.
func respError(status int, body []byte) string {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
		return fmt.Sprintf("%d (%s): %s", status, env.Error.Code, env.Error.Message)
	}
	return fmt.Sprintf("%d: %s", status, strings.TrimSpace(string(body)))
}
