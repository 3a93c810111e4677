package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testPeer is an httptest server speaking just enough of the
// /v1/cluster/* surface for transport-level tests.
func testPeer(t *testing.T, handler http.HandlerFunc) string {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func twoPeerCluster(t *testing.T, remote string, cfg Config) *Cluster {
	t.Helper()
	cfg.Self = "self:0"
	cfg.Peers = []string{"self:0", remote}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFetchHitMissUnavailable(t *testing.T) {
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/hit"):
			w.Write([]byte(`{"kind":"yield"}`))
		case strings.HasSuffix(r.URL.Path, "/miss"):
			w.WriteHeader(http.StatusNotFound)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	})
	c := twoPeerCluster(t, addr, Config{})
	ctx := context.Background()

	data, err := c.Fetch(ctx, addr, "hit")
	if err != nil || string(data) != `{"kind":"yield"}` {
		t.Fatalf("hit: data=%q err=%v", data, err)
	}
	if _, err := c.Fetch(ctx, addr, "miss"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss: err=%v, want ErrNotFound", err)
	}
	if _, err := c.Fetch(ctx, addr, "err"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("5xx: err=%v, want ErrUnavailable", err)
	}
	// Misses are healthy answers: only the 5xx should have counted.
	if st := c.Stats()[addr]; st.Errors != 1 || st.Requests != 3 {
		t.Fatalf("stats = %+v, want 1 error across 3 requests", st)
	}
}

func TestComputeRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"queue full"}}`))
			return
		}
		w.Write([]byte(`{"id":"j1","state":"done"}`))
	})
	c := twoPeerCluster(t, addr, Config{
		Retries: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
	})
	data, err := c.Compute(context.Background(), addr, "", []byte(`{}`))
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if string(data) != `{"id":"j1","state":"done"}` {
		t.Fatalf("Compute body = %q", data)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 retries)", n)
	}
}

func TestComputeExhaustsRetriesOnDeadPeer(t *testing.T) {
	// A listener that was closed: connections are refused.
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(srv.URL, "http://")
	srv.Close()

	c := twoPeerCluster(t, addr, Config{
		Retries: 1, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		FailThreshold: 2, Cooldown: time.Minute,
	})
	if _, err := c.Compute(context.Background(), addr, "", []byte(`{}`)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	// Two failed attempts tripped the breaker; further calls short-circuit.
	if c.Available(addr) {
		t.Fatal("breaker still admits the dead peer")
	}
	if _, err := c.Fetch(context.Background(), addr, "d"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("tripped-peer fetch err = %v, want immediate ErrUnavailable", err)
	}
}

func TestComputeBusyDoesNotTripBreaker(t *testing.T) {
	var calls atomic.Int64
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"queue full"}}`))
	})
	c := twoPeerCluster(t, addr, Config{
		Retries: -1, FailThreshold: 2, Cooldown: time.Minute,
	})
	// Far more consecutive queue-full answers than the threshold: each
	// steers the caller to steal, none may mark the live peer dead.
	for i := 0; i < 5; i++ {
		if _, err := c.Compute(context.Background(), addr, "", []byte(`{}`)); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("call %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	if !c.Available(addr) {
		t.Fatal("queue-full answers tripped the breaker of a live peer")
	}
	if n := calls.Load(); n != 5 {
		t.Fatalf("server saw %d calls, want 5 (no short-circuit)", n)
	}
	if st := c.Stats()[addr]; st.Trips != 0 {
		t.Fatalf("stats = %+v, want zero trips", st)
	}
}

func TestComputeRejectedNotRetried(t *testing.T) {
	var calls atomic.Int64
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"invalid_request","message":"bad spec"}}`))
	})
	c := twoPeerCluster(t, addr, Config{Retries: 3, RetryBase: time.Millisecond})
	_, err := c.Compute(context.Background(), addr, "", []byte(`{}`))
	if err == nil || errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want a permanent rejection", err)
	}
	if !strings.Contains(err.Error(), "invalid_request") {
		t.Fatalf("error %q does not surface the envelope code", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry on rejection)", n)
	}
}

func TestComputeHonorsContextDuringBackoff(t *testing.T) {
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	c := twoPeerCluster(t, addr, Config{
		Retries: 5, RetryBase: time.Hour, RetryMax: time.Hour,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Compute(ctx, addr, "", []byte(`{}`))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt fail and enter backoff
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Compute did not return after cancellation during backoff")
	}
}

func TestPushStoresOnPeer(t *testing.T) {
	var got atomic.Value
	addr := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			t.Errorf("method = %s", r.Method)
		}
		got.Store(r.URL.Path)
		w.WriteHeader(http.StatusNoContent)
	})
	c := twoPeerCluster(t, addr, Config{})
	if err := c.Push(context.Background(), addr, "abc123", []byte(`{}`)); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if p, _ := got.Load().(string); p != "/v1/cluster/result/abc123" {
		t.Fatalf("push path = %q", p)
	}
}

func TestOwnerSelfDetection(t *testing.T) {
	c, err := New(Config{Self: "a:1", Peers: []string{"a:1", "b:2", "c:3"}})
	if err != nil {
		t.Fatal(err)
	}
	sawSelf, sawRemote := false, false
	for i := 0; i < 100 && !(sawSelf && sawRemote); i++ {
		addr, self := c.Owner(digestFor(i))
		if self {
			if addr != "a:1" {
				t.Fatalf("self=true but addr=%s", addr)
			}
			sawSelf = true
		} else {
			sawRemote = true
		}
	}
	if !sawSelf || !sawRemote {
		t.Fatal("owner split degenerate across 100 digests")
	}
}
