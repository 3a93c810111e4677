package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sync/atomic"

	"tels/internal/cluster"
	"tels/internal/core"
	"tels/internal/resyn"
	"tels/internal/store"
)

// Config sizes the manager.
type Config struct {
	// Workers is the worker-pool size (default runtime.NumCPU()).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker
	// (default 4×Workers). Submit fails with ErrQueueFull beyond it.
	QueueDepth int
	// CacheEntries bounds the result cache (default DefaultCacheEntries).
	CacheEntries int
	// DefaultTimeout bounds jobs that don't set their own Timeout
	// (default 2 minutes).
	DefaultTimeout time.Duration
	// MaxJobs bounds the retained job table (default 1024); the oldest
	// finished jobs are pruned first.
	MaxJobs int
	// Store, when set, makes the manager durable: job lifecycles are
	// journaled to its WAL, results persist to its content-addressed
	// store, and at construction the journal is replayed — terminal
	// jobs are restored with their results, pending jobs re-enqueued
	// under their original IDs, and the cache warmed from disk. Nil
	// keeps the manager fully in-memory.
	Store *store.Store
	// Cluster, when set, spreads the content-addressed cache across a
	// static fleet of telsd peers: before computing a digest owned by
	// another peer the manager asks the owner for an existing result,
	// sweep grids fan their points to owner peers (hedged and stolen
	// back when peers straggle or die), and fresh results computed for
	// foreign digests are pushed to their owners. Nil keeps the manager
	// single-node; a fully dead fleet degrades to exactly that.
	Cluster *cluster.Cluster
	// ExecDelay adds an artificial latency to every pipeline execution.
	// It exists for benchmarks and tests that measure the dispatch layer
	// itself (cmd/telsbench cluster runs every peer in one process, where
	// real compute would serialize on the machine's cores); it never
	// enters job digests and must stay zero in production.
	ExecDelay time.Duration
	// Auth is the tenant/key table. Nil (or empty) is open mode: every
	// caller acts as an admin of the default tenant, preserving the
	// pre-tenancy behavior of a keyless telsd.
	Auth *Auth
	// TenantWeight is the default weighted-fair share of a tenant that
	// doesn't override it in the auth table (default 1).
	TenantWeight int
	// TenantMaxJobs caps any tenant's outstanding (queued or running)
	// public jobs; beyond it submissions fail with ErrQuotaExceeded
	// (0 = unlimited; per-tenant overrides in the auth table win).
	TenantMaxJobs int
	// TenantMaxInFlight caps any tenant's concurrently dispatched jobs;
	// excess queued work simply waits (0 = unlimited).
	TenantMaxInFlight int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	return c
}

// Submission errors.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrClosed    = errors.New("service: manager closed")
)

// jobRecord is the manager's mutable view of one submission. All mutable
// fields are guarded by the manager's mutex; the immutable ones are set
// at submit time.
type jobRecord struct {
	id     string
	req    Request
	digest string
	tenant string

	state     State
	created   time.Time
	started   time.Time
	finished  time.Time
	err       error
	result    *Result
	cancelled bool // Cancel was requested (distinguishes cancel from timeout)

	// internal marks sub-tasks spawned by a sweep coordinator: they are
	// absent from the public job table and excluded from the job-outcome
	// counters (cache traffic still counts).
	internal bool
	// run is set on sweep points only: a point estimator against the
	// sweep's shared session, run in place of the kind's runner and
	// without the owner fill, since the sweep dispatcher already chose
	// the venue.
	run func(context.Context, Request) (Result, error)

	// Sweep progress (kind "sweep" only), guarded by the manager's mutex.
	// sweepPoints is indexed by grid position; nil slots are pending.
	sweepTotal  int
	sweepDone   int
	sweepFailed int
	sweepPoints []*SweepPoint

	// Resyn progress (kind "resyn" only), guarded by the manager's
	// mutex: iterations appended as the loop completes them.
	resynIters []resyn.Iteration

	ctx    context.Context // cancelled by Cancel or manager shutdown
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state

	// gone marks a record cancelled while queued; the admission queue
	// skips it lazily at pop time instead of unlinking it eagerly.
	gone atomic.Bool
	// subs are the job's live SSE subscribers, guarded by the manager's
	// mutex; emissions and snapshots happen under it, which is what
	// makes the stream's exactly-once-per-increment guarantee hold.
	subs []*subscriber
	// eventSeq numbers the events emitted for this job (SSE ids).
	eventSeq int64
}

// newJobRecord returns a queued record whose context derives from
// parent, so cancelling parent cancels the job. An empty tenant is the
// default tenant, which is also how journal records written before
// tenancy replay.
func newJobRecord(parent context.Context, id, tenant string, req Request, digest string) *jobRecord {
	if tenant == "" {
		tenant = DefaultTenant
	}
	ctx, cancel := context.WithCancel(parent)
	return &jobRecord{
		id:      id,
		req:     req,
		digest:  digest,
		tenant:  tenant,
		state:   StateQueued,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
}

// flight is one in-progress pipeline run; jobs with the same digest wait
// on it instead of re-running the synthesis (singleflight).
type flight struct {
	done chan struct{}
	res  Result
	err  error
}

// Manager owns the worker pool, the job table, and the result cache.
type Manager struct {
	cfg     Config
	cache   *Cache
	metrics *Metrics

	// store persists job lifecycles and results (nil = in-memory only);
	// the counters beside it feed the store_* metrics. Journal events
	// are captured into journalPending under mu and written to the WAL
	// by flushJournal outside it, so disk I/O never runs inside the
	// manager's critical sections; journalMu serializes flushers, which
	// keeps the WAL in capture (= state transition) order.
	store           *store.Store
	journalMu       sync.Mutex
	journalPending  []store.Event
	storeErrs       atomic.Int64
	storeReplayed   int64 // journal entries replayed at construction
	storeRequeued   int64 // replayed pending jobs put back in the queue
	storeWarmed     int64 // cache entries loaded from persisted results
	storeRecoveryMS int64

	mu       sync.Mutex
	jobs     map[string]*jobRecord
	order    []string // submission order, for List and pruning
	flights  map[string]*flight
	seq      int
	closed   bool
	draining bool // Close in progress: journal cancellations as interrupted

	admit      *admitQueue
	wg         sync.WaitGroup
	coordWg    sync.WaitGroup // sweep coordinators; drained before the queue closes
	pushWg     sync.WaitGroup // best-effort result pushes to owner peers
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// exec runs one pipeline; tests replace it to model slow or stuck
	// jobs deterministically. Set before any Submit.
	exec func(context.Context, Request) (Result, error)
	// sweepPointStart, when set, is invoked with the grid index at the
	// start of every executed sweep point; tests use it to pace points.
	sweepPointStart func(index int)
}

// New starts a manager with its worker pool. With Config.Store set it
// first replays the journal: terminal jobs are restored with their
// results, the cache is warmed from disk, and the pending backlog is
// re-enqueued in journal order — restored jobs bypass the depth bound
// and tenant quotas (they were admitted before the restart) but still
// register against their tenant's outstanding count, so quota
// accounting survives recovery. Recovered sweep coordinators start
// only after the backlog is enqueued and the workers are draining.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		cache:      NewCache(cfg.CacheEntries),
		metrics:    &Metrics{},
		store:      cfg.Store,
		jobs:       make(map[string]*jobRecord),
		flights:    make(map[string]*flight),
		baseCtx:    ctx,
		baseCancel: cancel,
		exec:       runPipeline,
		admit:      newAdmitQueue(cfg),
	}
	var pending []*jobRecord
	if m.store != nil {
		pending = m.restore(decodeBacklog(m.store))
	}
	for _, j := range pending {
		m.admit.enqueueRestored(j)
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	for _, j := range pending {
		if j.req.Kind == "sweep" {
			m.coordWg.Add(1)
			go m.runSweep(j)
		}
	}
	return m
}

// Workers reports the worker-pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Auth returns the tenant/key table (nil in open mode).
func (m *Manager) Auth() *Auth { return m.cfg.Auth }

// Close stops accepting jobs, cancels everything in flight, and waits for
// the workers to drain. Sweep coordinators observe the cancellation and
// stop feeding the queue before it closes.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	// From here cancellations are drain-induced, not user-requested;
	// with a store they are journaled as interrupted so the next start
	// re-enqueues them.
	m.draining = true
	m.mu.Unlock()
	m.baseCancel()
	m.coordWg.Wait()
	m.admit.close()
	m.wg.Wait()
	m.pushWg.Wait()  // in-flight owner pushes observe baseCtx and stop
	m.flushJournal() // drain-induced interrupted events reach the WAL
}

// Submit validates and enqueues a request under the default tenant,
// returning the job snapshot. It is SubmitAs with an open-mode caller;
// in-process embedders (cmd/telsim) use it directly.
func (m *Manager) Submit(req Request) (Job, error) {
	return m.SubmitAs(Caller{Tenant: DefaultTenant, Admin: true}, req)
}

// SubmitAs validates and enqueues a request on behalf of a caller,
// returning the job snapshot. The digest is computed up front, so a
// request that doesn't parse fails here rather than occupying a
// worker. Admission is per tenant: the caller's tenant owns the job,
// its outstanding-job quota applies (ErrQuotaExceeded beyond it), and
// the weighted-fair scheduler orders it against other tenants' work.
func (m *Manager) SubmitAs(caller Caller, req Request) (Job, error) {
	if err := req.Normalize(); err != nil {
		return Job{}, err
	}
	digest, err := Digest(req)
	if err != nil {
		return Job{}, err
	}

	defer m.flushJournal() // after the deferred unlock (LIFO)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Job{}, ErrClosed
	}
	m.seq++
	j := newJobRecord(m.baseCtx, fmt.Sprintf("job-%06d", m.seq), caller.Tenant, req, digest)
	if req.Kind == "sweep" {
		// Sweep jobs don't occupy a queue slot or a worker: a dedicated
		// coordinator fans their points into the queue, so even a
		// single-worker pool can't be deadlocked by its own sweep. They
		// still hold one outstanding-job slot of their tenant's quota.
		if err := m.admit.admitSweep(j.tenant); err != nil {
			j.cancel()
			return Job{}, err
		}
		m.coordWg.Add(1)
		go m.runSweep(j)
	} else if err := m.admit.enqueuePublic(j); err != nil {
		j.cancel()
		return Job{}, err
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.metrics.jobsSubmitted.Add(1)
	m.journalSubmitLocked(j)
	m.pruneLocked()
	return j.snapshotLocked(), nil
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.snapshotLocked(), true
}

// List returns snapshots of the retained jobs in submission order.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j.snapshotLocked())
		}
	}
	return out
}

// Cancel requests cancellation of a queued or running job. It reports
// whether the request took effect (false for unknown or already-terminal
// jobs). A queued job is finalized immediately; a running job's worker
// observes the context and releases its slot without waiting for the
// abandoned pipeline goroutine.
func (m *Manager) Cancel(id string) bool {
	defer m.flushJournal() // after the deferred unlock (LIFO)
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || j.state.Terminal() {
		return false
	}
	j.cancelled = true
	j.cancel()
	if j.state == StateQueued {
		// Leave the record in its admission lane; pop skips gone records
		// lazily. The terminal transition below retires its quota slot.
		j.gone.Store(true)
		m.finishLocked(j, nil, context.Canceled)
	}
	return true
}

// Wait blocks until the job reaches a terminal state or ctx expires, and
// returns the final snapshot.
func (m *Manager) Wait(ctx context.Context, id string) (Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.snapshotLocked(), nil
}

// MetricsSnapshot returns the counter map for /metrics.
func (m *Manager) MetricsSnapshot() map[string]int64 {
	m.mu.Lock()
	perState := make(map[State]int)
	for _, j := range m.jobs {
		perState[j.state]++
	}
	m.mu.Unlock()
	out := m.metrics.Snapshot(perState, m.cache.Len())
	cc := core.SnapshotCheckCounters()
	out["threshold_checks"] = cc.Checks
	out["unsat_core_hits"] = cc.UnsatCacheHits
	out["solver_budget_bailouts"] = cc.BudgetBailouts
	for name, ts := range m.admit.stats() {
		out["tenant_"+name+"_queued"] = int64(ts.Queued)
		out["tenant_"+name+"_running"] = int64(ts.Running)
		out["tenant_"+name+"_outstanding"] = int64(ts.Outstanding)
		out["tenant_"+name+"_dispatched"] = ts.Dispatched
		out["tenant_"+name+"_quota_rejections"] = ts.QuotaRejections
	}
	if cl := m.cfg.Cluster; cl != nil {
		m.metrics.addCluster(out)
		out["cluster_peers"] = int64(cl.Size())
		for addr, st := range cl.Stats() {
			out["cluster_peer_"+addr+"_inflight"] = st.Inflight
			out["cluster_peer_"+addr+"_requests"] = st.Requests
			out["cluster_peer_"+addr+"_errors"] = st.Errors
			out["cluster_peer_"+addr+"_trips"] = st.Trips
			if st.Down {
				out["cluster_peer_"+addr+"_down"] = 1
			} else {
				out["cluster_peer_"+addr+"_down"] = 0
			}
		}
	}
	if m.store != nil {
		st := m.store.Stats()
		out["store_journal_bytes"] = st.JournalBytes
		out["store_segments"] = int64(st.Segments)
		out["store_appends"] = st.Appends
		out["store_compactions"] = st.Compactions
		out["store_results"] = st.Results
		out["store_replayed_jobs"] = m.storeReplayed
		out["store_requeued_jobs"] = m.storeRequeued
		out["store_warmed_results"] = m.storeWarmed
		out["store_recovery_ms"] = m.storeRecoveryMS
		out["store_errors"] = m.storeErrs.Load()
	}
	return out
}

// pruneLocked evicts the oldest finished jobs beyond MaxJobs.
func (m *Manager) pruneLocked() {
	if len(m.order) <= m.cfg.MaxJobs {
		return
	}
	kept := m.order[:0]
	excess := len(m.order) - m.cfg.MaxJobs
	for _, id := range m.order {
		j := m.jobs[id]
		if excess > 0 && j != nil && j.state.Terminal() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

func (j *jobRecord) snapshotLocked() Job {
	job := Job{
		ID:       j.id,
		Kind:     j.req.Kind,
		Tenant:   j.tenant,
		Priority: j.req.Priority,
		State:    j.state,
		Digest:   j.digest,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Result:   j.result,
	}
	if j.err != nil {
		job.Error = j.err.Error()
	}
	if j.req.Kind == "sweep" && j.sweepTotal > 0 {
		pr := &Progress{
			DonePoints:   j.sweepDone,
			TotalPoints:  j.sweepTotal,
			FailedPoints: j.sweepFailed,
		}
		for _, sp := range j.sweepPoints {
			if sp != nil {
				pr.Points = append(pr.Points, *sp)
			}
		}
		job.Progress = pr
	}
	if j.req.Kind == "resyn" && len(j.resynIters) > 0 {
		job.Progress = &Progress{
			Iterations: append([]resyn.Iteration(nil), j.resynIters...),
		}
	}
	return job
}

// worker drains the admission queue until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j, ok := m.admit.pop()
		if !ok {
			return
		}
		m.runJob(j)
		m.admit.release(j)
	}
}

// runJob drives one job through the result path under its deadline.
// The runner is picked here, once, by kind: a sweep point's estimator,
// the re-synthesis loop for a resyn job, the pipeline (m.exec) for
// everything else. Only sweep points skip the owner fill.
func (m *Manager) runJob(j *jobRecord) {
	m.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting for a worker
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	timeout := j.req.Timeout
	if timeout <= 0 {
		timeout = m.cfg.DefaultTimeout
	}
	if !j.internal {
		m.journalLocked(store.Event{Type: store.EventStarted, JobID: j.id})
		m.emitLocked(j, eventState, nil, nil)
	}
	m.mu.Unlock()
	m.flushJournal()

	ctx, cancel := context.WithTimeout(j.ctx, timeout)
	defer cancel()

	run := m.exec
	switch {
	case j.run != nil:
		run = j.run
	case j.req.Kind == "resyn":
		run = m.resynRunner(j)
	}
	res, err := m.serve(ctx, j.req, j.digest, j.run == nil, run)
	if err != nil {
		m.finish(j, nil, err)
		return
	}
	m.finish(j, &res, nil)
}

// serve returns the result of req, whose digest is digest, by the one
// path every job takes: the cache, then an in-flight run of the same
// digest, then (with fill) the digest's owner peer, and only then run,
// detached. A fresh result is persisted, pushed to the digest's owner
// and cached; a failed run resolves its flight with the error, so the
// jobs coalesced on it retry from the top. Every result but a fresh one
// comes back with CacheHit set.
func (m *Manager) serve(ctx context.Context, req Request, digest string, fill bool, run func(context.Context, Request) (Result, error)) (Result, error) {
	for {
		m.mu.Lock()
		if res, ok := m.cache.Get(digest); ok {
			m.mu.Unlock()
			m.metrics.cacheHits.Add(1)
			res.CacheHit = true
			return res, nil
		}
		if f, ok := m.flights[digest]; ok {
			m.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
			if f.err != nil {
				// The leader failed (error, cancel, or timeout): retry
				// from the top, perhaps as the leader.
				continue
			}
			m.metrics.cacheHits.Add(1)
			res := f.res
			res.CacheHit = true
			return res, nil
		}
		f := &flight{done: make(chan struct{})}
		m.flights[digest] = f
		m.metrics.cacheMisses.Add(1)
		m.mu.Unlock()

		// A digest owned by another peer may already be computed there:
		// ask before burning a worker on it.
		res, filled := Result{}, false
		if fill {
			res, filled = m.remoteFill(ctx, digest)
		}
		var err error
		if !filled {
			res, err = m.execute(ctx, req, run)
			if err == nil {
				// Persist the fresh result before caching it (internal
				// sweep points and prefixes too, so a restarted sweep
				// re-serves its finished points from disk), and replicate
				// it to the digest's owner so its future fills hit.
				m.persistResult(digest, res)
				m.pushToOwner(digest, res)
				m.metrics.addStages(res.Stages)
			}
		}
		if err == nil {
			m.cacheResult(digest, res)
		}
		// Cache first, then drop the flight under m.mu: a job looking
		// under m.mu sees one or the other.
		m.mu.Lock()
		delete(m.flights, digest)
		f.res, f.err = res, err
		close(f.done)
		m.mu.Unlock()
		res.CacheHit = filled
		return res, err
	}
}

// execute counts and runs one computation, detached, after the
// configured ExecDelay.
func (m *Manager) execute(ctx context.Context, req Request, run func(context.Context, Request) (Result, error)) (Result, error) {
	m.metrics.jobsExecuted.Add(1)
	if d := m.cfg.ExecDelay; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	return runDetached(ctx, req, run)
}

// cacheResult stores a result under key in its fresh form (CacheHit
// clear) and counts the entries that made room for it. It takes no
// manager lock: the cache has its own.
func (m *Manager) cacheResult(key string, res Result) {
	res.CacheHit = false
	m.metrics.cacheEvictions.Add(int64(m.cache.Put(key, res)))
}

func (m *Manager) finish(j *jobRecord, res *Result, err error) {
	defer m.flushJournal() // after the deferred unlock (LIFO)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finishLocked(j, res, err)
}

// finishLocked moves the job to its terminal state and fires its done
// channel. Callers hold m.mu.
func (m *Manager) finishLocked(j *jobRecord, res *Result, err error) {
	if j.state.Terminal() {
		return
	}
	j.finished = time.Now()
	j.result = res
	switch {
	case err == nil:
		j.state = StateDone
		if !j.internal {
			m.metrics.jobsDone.Add(1)
		}
	case j.cancelled || errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = context.Canceled
		if !j.internal {
			m.metrics.jobsCancelled.Add(1)
		}
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.err = fmt.Errorf("service: job timed out: %w", err)
		if !j.internal {
			m.metrics.jobsFailed.Add(1)
		}
	default:
		j.state = StateFailed
		j.err = err
		if !j.internal {
			m.metrics.jobsFailed.Add(1)
		}
	}
	if !j.internal {
		m.admit.finished(j.tenant)
	}
	m.journalFinishLocked(j)
	m.emitEndLocked(j)
	j.cancel() // release the context's resources
	close(j.done)
}
