// Command telsd is the TELS synthesis daemon: it serves the full
// BLIF → optimize → synthesize → verify flow as a JSON-over-HTTP job API
// with a bounded worker pool and a content-addressed result cache, so
// repeated synthesis of the same netlist with the same knobs is served
// without re-running the flow.
//
//	telsd -addr :8455 -workers 8 -cache 256 -data-dir /var/lib/telsd
//
// With -data-dir set the daemon is durable: every job's lifecycle is
// journaled to a segmented, CRC-framed write-ahead log and every result
// is persisted to a content-addressed store under the job's SHA-256
// digest (internal/store). On restart the journal is replayed — jobs
// that were queued or running (or drained as interrupted by SIGTERM)
// are re-enqueued under their original IDs with their deterministic
// seeds, finished results are re-served from disk without
// recomputation, and a torn journal tail from a crash is truncated back
// to the last intact record. With -data-dir empty nothing touches disk
// and behavior is identical to the pre-store daemon.
//
// Submissions are kind-tagged: {"kind": "synth"} runs the flow above;
// {"kind": "yield"} appends a Monte-Carlo yield analysis on the packed
// fsim engine ({"model": "weight"|"drift"|"stuck", ...}) with CI-based
// early stopping, the result carrying the failure rate, Wilson interval,
// and critical-gate ranking; {"kind": "sweep"} fans a grid of yield
// points (vs × delta_ons × models) across the worker pool, synthesizing
// each δon prefix once and caching every point under the digest of the
// equivalent standalone yield job. Polling a running sweep returns its
// partial curve and a done_points/total_points counter. {"kind": "resyn"}
// runs the defect-aware selective re-synthesis loop (estimate yield,
// blame gates by first flip, re-derive the top offenders at a raised
// per-gate δon); polling a running resyn job returns the per-iteration
// trajectory, and the final result carries the hardening report plus the
// hardened netlist.
//
// With -peers set the daemon joins a static cluster: every peer is
// started with the same comma-separated peer list and its own -self
// identity, and a consistent-hash ring over job digests assigns each
// digest an owner peer. Before computing a foreign digest a peer asks
// its owner for an existing result; sweep grids fan their points to the
// owners (hedging stragglers with a local run and stealing work back
// from dead or saturated peers), so a killed peer degrades throughput,
// never correctness.
//
//	telsd -addr :8455 -peers host1:8455,host2:8455 -self host1:8455
//
// The daemon listens immediately but gates readiness: while the journal
// replays, GET /v1/healthz answers 200 (the process is alive) and
// GET /v1/readyz answers 503 (don't route work here yet); every other
// route also answers 503 until recovery completes.
//
// With -api-keys (or -api-keys-file) set the daemon is multi-tenant:
// every /v1 request except the probes must present a configured bearer
// key, every job belongs to the key's tenant, tenant keys see only
// their own jobs, and admission is weighted-fair across tenants (stride
// scheduling on per-tenant weights with low/normal/high priority lanes)
// with per-tenant quotas — a submission past max_jobs answers 429
// quota_exceeded with a Retry-After header. With no keys the daemon is
// open and byte-compatible with the pre-tenancy API.
//
// Endpoints (v1):
//
//	POST   /v1/jobs             submit {"kind": ..., "spec": {...}, "priority": ...}
//	GET    /v1/jobs             list retained jobs (?state=, ?kind=, ?tenant=, ?limit=N)
//	GET    /v1/jobs/{id}        job status, result, and sweep/resyn progress
//	GET    /v1/jobs/{id}/events Server-Sent Events stream of the job lifecycle
//	GET    /v1/jobs/{id}/tln    the synthesized threshold netlist (text)
//	POST   /v1/jobs/{id}/cancel cancel a queued or running job
//	GET    /v1/healthz          liveness probe (no auth)
//	GET    /v1/readyz           readiness probe (no auth; 503 during recovery)
//	GET    /v1/metrics          job, cache, sweep, resyn, store, cluster, per-tenant, and latency counters
//
// plus the cluster-internal /v1/cluster/* surface peers use to exchange
// results and work (admin or cluster-key principals only; the
// X-Tels-Tenant header carries job ownership across peers). Errors are
// uniformly {"error": {"code", "message"}}. The pre-v1 flat routes
// (POST /synth, and the unversioned /jobs, /healthz, /metrics mirrors)
// have been removed; only the /v1/ surface is served. docs/API.md is
// the complete reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tels/internal/cli"
	"tels/internal/cluster"
	"tels/internal/fsim"
	"tels/internal/service"
	"tels/internal/store"
)

// options carries the parsed flag set into run.
type options struct {
	addr       string
	workers    int
	queue      int
	cache      int
	timeout    time.Duration
	maxjobs    int
	width      fsim.Width
	dataDir    string
	peers      string
	self       string
	auth       *service.Auth
	admission  string
	tenantWt   int
	tenantJobs int
	tenantInfl int
	execDelay  time.Duration
}

func main() {
	var (
		addr      = flag.String("addr", ":8455", "listen address")
		workers   = flag.Int("workers", 0, "worker-pool size (0 = NumCPU)")
		queue     = flag.Int("queue", 0, "queue depth (0 = 4×workers)")
		cache     = flag.Int("cache", service.DefaultCacheEntries, "result-cache capacity in entries")
		timeout   = flag.Duration("timeout", 2*time.Minute, "default per-job timeout")
		maxjobs   = flag.Int("maxjobs", 1024, "retained job records")
		width     = flag.String("width", "1", "fsim lane-block width in 64-bit words (1, 4, or 8); results and job digests are identical at every width")
		dataDir   = flag.String("data-dir", "", "durable store directory: journal job lifecycles, persist results, and recover on restart (empty = in-memory only)")
		peers     = flag.String("peers", "", "static cluster peer list (host:port,...); every peer must be started with the same list (empty = single node)")
		self      = flag.String("self", "", "this daemon's own address as it appears in -peers (required with -peers)")
		apiKeys   = flag.String("api-keys", "", "tenant API keys as tenant=key[,tenant=key=admin,...]; empty = open mode (no auth)")
		keysFile  = flag.String("api-keys-file", "", `JSON keys file {"tenants":[{"name","key","weight","max_jobs","max_in_flight","admin"}],"cluster_key":"..."}; merged with -api-keys`)
		clustKey  = flag.String("cluster-key", "", "shared bearer token peers present on /v1/cluster/* calls (required when keys are set on a cluster)")
		admission = flag.String("admission", service.AdmissionFair, "admission policy: fair (weighted-fair per-tenant queues) or fifo (single queue, baseline)")
		tenantWt  = flag.Int("tenant-weight", 0, "default tenant weight under fair admission (0 = 1)")
		tenantJ   = flag.Int("tenant-max-jobs", 0, "default cap on a tenant's outstanding jobs, 429 beyond it (0 = unlimited)")
		tenantIF  = flag.Int("tenant-max-inflight", 0, "default cap on a tenant's concurrently running jobs (0 = unlimited)")
		execDelay = flag.Duration("exec-delay", 0, "artificial latency added to every job execution (fault injection for staging and smoke tests)")
		quiet     = flag.Bool("q", false, "suppress startup and shutdown messages")
	)
	flag.Parse()
	t := cli.New("telsd")
	t.Quiet = *quiet
	if flag.NArg() > 0 {
		t.Usage("unexpected arguments %v", flag.Args())
	}
	w, err := fsim.ParseWidth(*width)
	if err != nil {
		t.Usage("%v", err)
	}
	if (*peers == "") != (*self == "") {
		t.Usage("-peers and -self must be set together")
	}
	if *admission != service.AdmissionFair && *admission != service.AdmissionFIFO {
		t.Usage("-admission must be fair or fifo, got %q", *admission)
	}
	auth, err := buildAuth(*apiKeys, *keysFile, *clustKey)
	if err != nil {
		t.Usage("%v", err)
	}
	o := options{
		addr: *addr, workers: *workers, queue: *queue, cache: *cache,
		timeout: *timeout, maxjobs: *maxjobs, width: w, dataDir: *dataDir,
		peers: *peers, self: *self, auth: auth, admission: *admission,
		tenantWt: *tenantWt, tenantJobs: *tenantJ, tenantInfl: *tenantIF,
		execDelay: *execDelay,
	}
	if err := run(t, o); err != nil {
		t.Fail(err)
	}
}

// buildAuth merges the -api-keys flag, the -api-keys-file contents, and
// the -cluster-key into one key table. nil (open mode) when no tenant
// keys are configured anywhere.
func buildAuth(apiKeys, keysFile, clusterKey string) (*service.Auth, error) {
	var tenants []service.TenantConfig
	if keysFile != "" {
		ts, fileClusterKey, err := service.LoadKeysFile(keysFile)
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, ts...)
		if clusterKey == "" {
			clusterKey = fileClusterKey
		}
	}
	if apiKeys != "" {
		ts, err := service.ParseAPIKeys(apiKeys)
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, ts...)
	}
	if len(tenants) == 0 && clusterKey == "" {
		return nil, nil
	}
	auth, err := service.NewAuth(tenants)
	if err != nil {
		return nil, err
	}
	auth.ClusterKey = clusterKey
	return auth, nil
}

// bootGate answers for the daemon until recovery completes: liveness
// stays green so supervisors don't kill a replaying daemon, readiness
// and everything else answer 503 so load balancers and cluster peers
// don't route work here yet. Once the real handler is published every
// request goes straight to it.
type bootGate struct {
	ready atomic.Pointer[http.Handler]
}

func (g *bootGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := g.ready.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if r.URL.Path == "/v1/healthz" {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"status":"ok","phase":"starting"}`)
		return
	}
	// Retry-After: replay is usually quick; waiters (service.Client.Wait
	// honors this) should come back shortly rather than give up.
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, `{"error":{"code":"overloaded","message":"recovering: journal replay in progress"}}`)
}

func run(t *cli.Tool, o options) error {
	// The listener comes up before recovery: store open + journal replay
	// can take a while after a crash, and a daemon that answers nothing
	// during that window looks dead to supervisors and peers alike.
	gate := &bootGate{}
	type booted struct {
		m  *service.Manager
		st *store.Store
	}
	bootCh := make(chan booted, 1)
	bootErr := make(chan error, 1)
	go func() {
		cfg := service.Config{
			Workers:           o.workers,
			QueueDepth:        o.queue,
			CacheEntries:      o.cache,
			DefaultTimeout:    o.timeout,
			MaxJobs:           o.maxjobs,
			FsimWidth:         o.width,
			Auth:              o.auth,
			Admission:         o.admission,
			TenantWeight:      o.tenantWt,
			TenantMaxJobs:     o.tenantJobs,
			TenantMaxInFlight: o.tenantInfl,
			ExecDelay:         o.execDelay,
		}
		var st *store.Store
		if o.dataDir != "" {
			var err error
			st, err = store.Open(o.dataDir, store.Options{})
			if err != nil {
				bootErr <- err
				return
			}
			rec := st.Recovered()
			pending := 0
			for _, j := range rec.Jobs {
				if !j.Terminal() {
					pending++
				}
			}
			t.Infof("recovered %s: %d jobs journaled (%d pending), %d events in %d ms%s",
				o.dataDir, len(rec.Jobs), pending, rec.Events, rec.Elapsed.Milliseconds(),
				tornNote(rec.TruncatedBytes))
			cfg.Store = st
		}
		if o.peers != "" {
			clCfg := cluster.Config{Self: o.self, Peers: splitPeers(o.peers)}
			if o.auth != nil {
				clCfg.AuthToken = o.auth.ClusterKey
			}
			cl, err := cluster.New(clCfg)
			if err != nil {
				if st != nil {
					st.Close()
				}
				bootErr <- err
				return
			}
			cfg.Cluster = cl
			t.Infof("cluster of %d peers, self %s", cl.Size(), cl.Self())
		}
		m := service.New(cfg)
		h := service.NewHandler(m)
		gate.ready.Store(&h)
		if o.auth != nil && !o.auth.Open() {
			t.Infof("auth on: %d tenants (%s admission)", len(o.auth.Tenants()), o.admission)
		}
		t.Infof("ready (%d workers, cache %d entries, fsim width %s)", m.Workers(), o.cache, o.width)
		bootCh <- booted{m: m, st: st}
	}()

	srv := &http.Server{
		Addr:              o.addr,
		Handler:           gate,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe()
	}()
	t.Infof("serving on %s", o.addr)

	select {
	case err := <-bootErr:
		srv.Close()
		<-errCh
		return err
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop the listener, then close the manager — which
	// cancels what is still queued or running; with a store those jobs
	// are journaled as interrupted and re-enqueued on the next start
	// instead of silently vanishing — and only then the store.
	t.Infof("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	select {
	case b := <-bootCh:
		b.m.Close()
		if b.st != nil {
			b.st.Close()
		}
	case err := <-bootErr:
		return err
	}
	return nil
}

// splitPeers parses the -peers list, tolerating stray whitespace and
// trailing commas; cluster.New validates the result.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func tornNote(truncated int64) string {
	if truncated == 0 {
		return ""
	}
	return fmt.Sprintf(", torn tail of %d bytes truncated", truncated)
}
