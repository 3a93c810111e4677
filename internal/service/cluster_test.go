package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tels/internal/cluster"
	"tels/internal/core"
)

// peerNode is one member of an in-process test fleet: a real manager
// served over a real loopback listener, so the dispatch layer exercises
// genuine HTTP between peers.
type peerNode struct {
	addr string
	cl   *cluster.Cluster
	m    *Manager
	srv  *httptest.Server
	once sync.Once
}

func (n *peerNode) close() {
	n.once.Do(func() {
		n.srv.Close()
		n.m.Close()
	})
}

// startFleet boots n managers wired into one static ring. The listeners
// are created first so every peer's ring can be built from the final
// address list. cfg (optional) mutates peer i's service config; wrap
// (optional) decorates peer i's handler to inject faults.
func startFleet(t *testing.T, n int, clCfg cluster.Config, cfg func(i int, c *Config), wrap func(i int, h http.Handler) http.Handler) []*peerNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	nodes := make([]*peerNode, n)
	for i := range nodes {
		cc := clCfg
		cc.Self = addrs[i]
		cc.Peers = addrs
		cl, err := cluster.New(cc)
		if err != nil {
			t.Fatal(err)
		}
		sc := Config{Workers: 1, QueueDepth: 64, Cluster: cl}
		if cfg != nil {
			cfg(i, &sc)
		}
		m := New(sc)
		h := http.Handler(NewHandler(m))
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := &httptest.Server{
			Listener: listeners[i],
			Config:   &http.Server{Handler: h},
		}
		srv.Start()
		nodes[i] = &peerNode{addr: addrs[i], cl: cl, m: m, srv: srv}
		t.Cleanup(nodes[i].close)
	}
	return nodes
}

// requestOwnedBy finds a synth request whose digest the ring assigns to
// owner, by walking the seed knob (the seed changes the digest, not the
// tiny network's synthesis outcome's validity).
func requestOwnedBy(t *testing.T, cl *cluster.Cluster, owner string) Request {
	t.Helper()
	for seed := int64(1); seed < 4096; seed++ {
		req := Request{BLIF: testBlif, Options: core.Options{Seed: seed}}
		norm := req
		if err := norm.Normalize(); err != nil {
			t.Fatal(err)
		}
		d, err := Digest(norm)
		if err != nil {
			t.Fatal(err)
		}
		if a, _ := cl.Owner(d); a == owner {
			return req
		}
	}
	t.Fatal("no seed maps to the requested owner")
	return Request{}
}

func submitAndWait(t *testing.T, m *Manager, req Request) Job {
	t.Helper()
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done, err := m.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// clusterSweepRequest is the shared grid the fan-out tests run on every
// topology; identical seeds make the curve bit-comparable across them.
func clusterSweepRequest() Request {
	return Request{
		BLIF:  testBlif,
		Kind:  "sweep",
		Yield: YieldSpec{Model: "weight", MaxTrials: 3000, Seed: 42},
		Sweep: SweepSpec{Vs: []float64{0.3, 0.5, 0.7, 0.9, 1.1, 1.3}},
	}
}

// pointsOwnedBy counts how many of the shared grid's points the ring
// assigns to owner, exactly as the sweep coordinator will digest them.
func pointsOwnedBy(t *testing.T, cl *cluster.Cluster, owner string) int {
	t.Helper()
	req := clusterSweepRequest()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range req.Sweep.points(req) {
		d, err := Digest(pointRequest(req, p))
		if err != nil {
			t.Fatal(err)
		}
		if a, _ := cl.Owner(d); a == owner {
			n++
		}
	}
	return n
}

// startSweepFleet retries startFleet until the second peer owns at
// least one grid point: listener ports are random, so a single draw can
// put the whole grid on the coordinator and starve every remote-path
// assertion. The discarded fleets' cleanups are idempotent.
func startSweepFleet(t *testing.T, n int, clCfg cluster.Config, cfg func(i int, c *Config), wrap func(i int, h http.Handler) http.Handler) []*peerNode {
	t.Helper()
	for attempt := 0; attempt < 16; attempt++ {
		nodes := startFleet(t, n, clCfg, cfg, wrap)
		if pointsOwnedBy(t, nodes[0].cl, nodes[1].addr) > 0 {
			return nodes
		}
		for _, nd := range nodes {
			nd.close()
		}
	}
	t.Fatal("no fleet draw assigned the second peer any grid point")
	return nil
}

// referenceCurve runs the sweep on a fresh single-node manager.
func referenceCurve(t *testing.T) []SweepPoint {
	t.Helper()
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 64})
	done := submitAndWait(t, m, clusterSweepRequest())
	if done.State != StateDone || done.Result == nil || done.Result.Sweep == nil {
		t.Fatalf("reference sweep: state=%s err=%s", done.State, done.Error)
	}
	return done.Result.Sweep.Points
}

// assertSameCurve compares two sweep curves point by point on every
// numeric outcome (cache provenance may differ by topology).
func assertSameCurve(t *testing.T, got, want []SweepPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("curve has %d points, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Error != "" {
			t.Fatalf("point %d failed: %s", i, g.Error)
		}
		if g.FailureRate != w.FailureRate || g.Yield != w.Yield || g.Gates != w.Gates || g.Area != w.Area {
			t.Fatalf("point %d diverges: got {fr=%v y=%v gates=%d area=%d}, want {fr=%v y=%v gates=%d area=%d}",
				i, g.FailureRate, g.Yield, g.Gates, g.Area, w.FailureRate, w.Yield, w.Gates, w.Area)
		}
	}
}

func TestClusterRemoteFill(t *testing.T) {
	nodes := startFleet(t, 2, cluster.Config{}, nil, nil)
	a, b := nodes[0], nodes[1]

	req := requestOwnedBy(t, a.cl, b.addr)
	if done := submitAndWait(t, b.m, req); done.State != StateDone {
		t.Fatalf("owner compute: state=%s err=%s", done.State, done.Error)
	}

	done := submitAndWait(t, a.m, req)
	if done.State != StateDone {
		t.Fatalf("fill job: state=%s err=%s", done.State, done.Error)
	}
	if !done.Result.CacheHit {
		t.Fatal("remote-filled result not marked as a cache hit")
	}
	am := a.m.MetricsSnapshot()
	if am["cluster_remote_hits"] != 1 {
		t.Fatalf("cluster_remote_hits = %d, want 1", am["cluster_remote_hits"])
	}
	if am["jobs_executed"] != 0 {
		t.Fatalf("jobs_executed = %d on the filling peer, want 0", am["jobs_executed"])
	}
	bm := b.m.MetricsSnapshot()
	if bm["cluster_fills_served"] != 1 {
		t.Fatalf("owner cluster_fills_served = %d, want 1", bm["cluster_fills_served"])
	}
}

// TestClusterOwnerTimeoutFallsBackToLocal pins the fill bound: a hung
// owner delays a job by at most FillTimeout before local compute runs.
func TestClusterOwnerTimeoutFallsBackToLocal(t *testing.T) {
	hang := func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Hold only the fill (GET). The owner push that follows the
			// local compute is a PUT whose unread body keeps the server
			// from noticing the client hang up, so holding it too would
			// block the server's Close at cleanup forever.
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/cluster/result/") {
				<-r.Context().Done() // hold the fill until the caller gives up
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	nodes := startFleet(t, 2, cluster.Config{FillTimeout: 50 * time.Millisecond}, nil, hang)
	a, b := nodes[0], nodes[1]

	req := requestOwnedBy(t, a.cl, b.addr)
	start := time.Now()
	done := submitAndWait(t, a.m, req)
	if done.State != StateDone {
		t.Fatalf("state=%s err=%s", done.State, done.Error)
	}
	if done.Result.CacheHit {
		t.Fatal("fallback compute mislabeled as a cache hit")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("job took %v: the hung owner was not bounded by FillTimeout", elapsed)
	}
	am := a.m.MetricsSnapshot()
	if am["cluster_remote_misses"] != 1 || am["jobs_executed"] != 1 {
		t.Fatalf("misses=%d executed=%d, want 1/1", am["cluster_remote_misses"], am["jobs_executed"])
	}
}

func TestClusterSweepFanOutMatchesSingleNode(t *testing.T) {
	want := referenceCurve(t)
	nodes := startSweepFleet(t, 2, cluster.Config{}, nil, nil)
	a := nodes[0]

	done := submitAndWait(t, a.m, clusterSweepRequest())
	if done.State != StateDone || done.Result == nil || done.Result.Sweep == nil {
		t.Fatalf("sweep: state=%s err=%s", done.State, done.Error)
	}
	if done.Result.Sweep.FailedPoints != 0 {
		t.Fatalf("%d failed points", done.Result.Sweep.FailedPoints)
	}
	assertSameCurve(t, done.Result.Sweep.Points, want)
	am := a.m.MetricsSnapshot()
	if am["cluster_remote_points"] == 0 {
		t.Fatal("no points were dispatched to the owner peer")
	}
}

// TestClusterDeadPeerSteals pins the degradation contract: a dead peer
// costs throughput, never correctness — its points are stolen back and
// the curve is bit-identical to a single-node run.
func TestClusterDeadPeerSteals(t *testing.T) {
	want := referenceCurve(t)
	nodes := startSweepFleet(t, 2, cluster.Config{
		RetryBase: 2 * time.Millisecond, RetryMax: 5 * time.Millisecond,
		Cooldown: time.Minute, // once tripped, stay tripped for the test
	}, nil, nil)
	a, b := nodes[0], nodes[1]
	b.close() // the peer is gone before the sweep starts

	done := submitAndWait(t, a.m, clusterSweepRequest())
	if done.State != StateDone || done.Result == nil || done.Result.Sweep == nil {
		t.Fatalf("sweep: state=%s err=%s", done.State, done.Error)
	}
	if done.Result.Sweep.FailedPoints != 0 {
		t.Fatalf("%d failed points: dead peer leaked into the curve", done.Result.Sweep.FailedPoints)
	}
	assertSameCurve(t, done.Result.Sweep.Points, want)
	am := a.m.MetricsSnapshot()
	if am["cluster_steals"] == 0 {
		t.Fatal("no steals recorded against the dead peer")
	}
}

// TestClusterHedgeLocalWins pins the straggler path: a peer that takes
// far longer than the hedge delay loses to the local hedge, and the
// sweep's curve is still bit-identical.
func TestClusterHedgeLocalWins(t *testing.T) {
	want := referenceCurve(t)
	nodes := startSweepFleet(t, 2,
		cluster.Config{HedgeMin: 40 * time.Millisecond, HedgeMax: 40 * time.Millisecond},
		func(i int, c *Config) {
			if i == 1 {
				c.ExecDelay = 3 * time.Second // every remote compute straggles
			}
		}, nil)
	a, b := nodes[0], nodes[1]

	done := submitAndWait(t, a.m, clusterSweepRequest())
	if done.State != StateDone || done.Result == nil || done.Result.Sweep == nil {
		t.Fatalf("sweep: state=%s err=%s", done.State, done.Error)
	}
	if done.Result.Sweep.FailedPoints != 0 {
		t.Fatalf("%d failed points", done.Result.Sweep.FailedPoints)
	}
	assertSameCurve(t, done.Result.Sweep.Points, want)
	am := a.m.MetricsSnapshot()
	if am["cluster_hedges"] == 0 || am["cluster_hedges_won"] == 0 {
		t.Fatalf("hedges=%d won=%d, want both > 0", am["cluster_hedges"], am["cluster_hedges_won"])
	}
	if bm := b.m.MetricsSnapshot(); bm["cluster_compute_served"] == 0 {
		t.Fatal("straggler peer never accepted a compute request")
	}
}

// TestComputeEndpointCancelsOnDisconnect pins the hedge-loser contract:
// when the calling peer hangs up, the serving peer cancels the job and
// the worker slot is released — not leaked for the job's full duration.
func TestComputeEndpointCancelsOnDisconnect(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	started := make(chan struct{})
	released := make(chan struct{})
	m.exec = func(ctx context.Context, req Request) (Result, error) {
		close(started)
		<-ctx.Done()
		close(released)
		return Result{}, ctx.Err()
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	body, err := json.Marshal(Request{BLIF: testBlif})
	if err != nil {
		t.Fatal(err)
	}
	tr := cluster.NewTransport()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := tr.Compute(ctx, strings.TrimPrefix(srv.URL, "http://"), "", body)
		errCh <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("compute never reached a worker")
	}
	cancel()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("worker not released after the caller disconnected")
	}
	if err := <-errCh; err == nil {
		t.Fatal("cancelled compute returned no error")
	}
}

func TestClusterResultEndpoints(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	done := submitAndWait(t, m, testRequest())
	if done.State != StateDone {
		t.Fatalf("state=%s err=%s", done.State, done.Error)
	}

	resp, err := http.Get(srv.URL + "/v1/cluster/result/" + done.Digest)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.TLN != done.Result.TLN {
		t.Fatalf("GET result: status=%d tln match=%v", resp.StatusCode, got.TLN == done.Result.TLN)
	}

	resp, err = http.Get(srv.URL + "/v1/cluster/result/no-such-digest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing result: status=%d, want 404", resp.StatusCode)
	}

	// PUT then GET round-trips a pushed result.
	pushed := Result{TLN: ".tnet pushed\n.end\n", Verified: "skipped"}
	data, _ := json.Marshal(pushed)
	putReq, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/cluster/result/feedface", bytes.NewReader(data))
	resp, err = http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT result: status=%d, want 204", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/cluster/result/feedface")
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.NewDecoder(resp.Body).Decode(&back); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if back.TLN != pushed.TLN {
		t.Fatalf("pushed result did not round-trip: %q", back.TLN)
	}
}

func TestReadyzServes(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status=%d, want 200", resp.StatusCode)
	}
}

// TestListRejectsEmptyQueryValues pins the ?state= bugfix: an
// empty-but-present filter value is invalid_request, not match-all.
func TestListRejectsEmptyQueryValues(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	for _, q := range []string{"?state=", "?kind=", "?limit=", "?state=&kind=synth"} {
		resp, err := http.Get(srv.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error APIError `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeInvalidRequest {
			t.Fatalf("%s: status=%d code=%q, want 400 %s", q, resp.StatusCode, env.Error.Code, CodeInvalidRequest)
		}
	}
	// Absent filters still list fine.
	for _, q := range []string{"", "?state=done", "?kind=synth&limit=5"} {
		resp, err := http.Get(srv.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status=%d, want 200", q, resp.StatusCode)
		}
	}
}

// TestClientWaitBacksOff pins the Wait polling contract: the interval
// grows toward the cap instead of hammering at a fixed rate, and ctx
// cancellation is honored between polls.
func TestClientWaitBacksOff(t *testing.T) {
	var polls atomic.Int64
	start := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		state := StateRunning
		if time.Since(start) > 400*time.Millisecond {
			state = StateDone
		}
		polls.Add(1)
		json.NewEncoder(w).Encode(Job{ID: "job-000001", State: state})
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, PollInterval: 5 * time.Millisecond, PollMaxInterval: 80 * time.Millisecond}
	job, err := c.WaitDone(context.Background(), "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone {
		t.Fatalf("state=%s", job.State)
	}
	// Fixed 5ms polling would make ~80 requests in 400ms; the backoff
	// (5, 10, 20, 40, 80, 80, ... with ±20% jitter) makes ~10.
	if n := polls.Load(); n > 30 {
		t.Fatalf("%d polls in ~400ms: Wait is not backing off", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Job{ID: "job-000002", State: StateRunning})
	}))
	defer hang.Close()
	hc := &Client{BaseURL: hang.URL, PollInterval: 10 * time.Millisecond, PollMaxInterval: 50 * time.Millisecond}
	waitErr := make(chan error, 1)
	go func() {
		_, err := hc.WaitDone(ctx, "job-000002")
		waitErr <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-waitErr:
		if err != context.Canceled {
			t.Fatalf("err=%v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not honor ctx cancellation between polls")
	}
}
