package service

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file is the admission layer that replaced the manager's single
// channel queue: per-tenant weighted-fair queues with three priority
// lanes each, per-tenant quotas, and a stride scheduler that picks the
// next job for a freed worker.
//
// Fairness is stride scheduling over tenants: each tenant carries a
// virtual "pass"; dispatching one of its jobs advances the pass by
// 1/weight, and a freed worker always serves the eligible tenant with
// the smallest pass. A tenant that floods the queue therefore advances
// its own pass quickly and yields to lighter tenants, while an idle
// tenant re-enters at the current virtual time (never banking credit
// for time it wasn't asking to run). Within one tenant, the high lane
// drains before normal before low — priority orders a tenant's own
// work and never steals capacity from other tenants.

// ErrQuotaExceeded is the sentinel under every per-tenant quota
// rejection; the API maps it to 429 quota_exceeded with Retry-After.
var ErrQuotaExceeded = errors.New("service: tenant quota exceeded")

// QuotaError reports which quota a submission tripped.
type QuotaError struct {
	// Tenant is the over-budget tenant.
	Tenant string
	// Limit is the quota that was hit.
	Limit int
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over job quota (limit %d outstanding)", e.Tenant, e.Limit)
}

func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

// quotaRetryAfter is the Retry-After suggestion on 429s: long enough
// that a polite client backs off, short enough that freed quota is
// picked up promptly.
const quotaRetryAfter = time.Second

// tenantState is one tenant's admission bookkeeping.
type tenantState struct {
	name        string
	weight      float64
	maxJobs     int // outstanding public jobs; <=0 = unlimited
	maxInFlight int // concurrently dispatched jobs; <=0 = unlimited

	pass        float64         // stride virtual time
	q           [3][]*jobRecord // priority lanes: high, normal, low
	nq          int             // records across lanes, cancelled included
	outstanding int             // public queued+running jobs (sweeps included)
	running     int             // dispatched worker-occupying jobs

	dispatched      int64
	quotaRejections int64
}

// popLane removes and returns the tenant's next queued record (which
// may be a cancelled one the caller must skip).
func (t *tenantState) popLane() (*jobRecord, bool) {
	for lane := range t.q {
		if len(t.q[lane]) > 0 {
			j := t.q[lane][0]
			t.q[lane][0] = nil
			t.q[lane] = t.q[lane][1:]
			t.nq--
			return j, true
		}
	}
	return nil, false
}

// TenantStats is one tenant's admission counters for /metrics.
type TenantStats struct {
	Queued          int
	Running         int
	Outstanding     int
	Dispatched      int64
	QuotaRejections int64
}

// admitQueue is the manager's admission queue. It has its own mutex;
// the manager may take it while holding m.mu (never the reverse).
type admitQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	depth    int // global queued-record bound for fail-fast enqueues
	defaults struct {
		weight      int
		maxJobs     int
		maxInFlight int
	}
	auth *Auth

	vtime   float64
	tenants map[string]*tenantState
	queued  int // records physically queued, internal and cancelled included
	closed  bool
}

func newAdmitQueue(cfg Config) *admitQueue {
	aq := &admitQueue{
		depth:   cfg.QueueDepth,
		auth:    cfg.Auth,
		tenants: make(map[string]*tenantState),
	}
	aq.defaults.weight = cfg.TenantWeight
	if aq.defaults.weight <= 0 {
		aq.defaults.weight = 1
	}
	aq.defaults.maxJobs = cfg.TenantMaxJobs
	aq.defaults.maxInFlight = cfg.TenantMaxInFlight
	aq.cond = sync.NewCond(&aq.mu)
	return aq
}

// tenantLocked lazily materializes a tenant's state, resolving its
// knobs from the auth table (per-tenant overrides) over the manager
// defaults.
func (aq *admitQueue) tenantLocked(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	if t, ok := aq.tenants[name]; ok {
		return t
	}
	t := &tenantState{
		name:        name,
		weight:      float64(aq.defaults.weight),
		maxJobs:     aq.defaults.maxJobs,
		maxInFlight: aq.defaults.maxInFlight,
		pass:        aq.vtime,
	}
	if tc, ok := aq.auth.Tenant(name); ok {
		if tc.Weight != 0 {
			t.weight = float64(tc.Weight)
		}
		if tc.MaxJobs != 0 {
			t.maxJobs = tc.MaxJobs
		}
		if tc.MaxInFlight != 0 {
			t.maxInFlight = tc.MaxInFlight
		}
	}
	if t.weight <= 0 {
		t.weight = 1
	}
	aq.tenants[name] = t
	return t
}

// checkJobQuotaLocked applies the outstanding-job quota.
func (aq *admitQueue) checkJobQuotaLocked(t *tenantState) error {
	if t.maxJobs > 0 && t.outstanding >= t.maxJobs {
		t.quotaRejections++
		return &QuotaError{Tenant: t.name, Limit: t.maxJobs, RetryAfter: quotaRetryAfter}
	}
	return nil
}

// enqueuePublic admits one public non-sweep job: the global depth bound
// first (503 overloaded), then the tenant's job quota (429), then the
// job joins its tenant's lane. An idle tenant's pass is floored to the
// current virtual time so it can't bank credit.
func (aq *admitQueue) enqueuePublic(j *jobRecord) error {
	aq.mu.Lock()
	defer aq.mu.Unlock()
	if aq.queued >= aq.depth {
		return ErrQueueFull
	}
	t := aq.tenantLocked(j.tenant)
	if err := aq.checkJobQuotaLocked(t); err != nil {
		return err
	}
	t.outstanding++
	aq.pushQueueLocked(t, j)
	return nil
}

// admitSweep admits a sweep job: it holds an outstanding-job slot for
// quota purposes but never occupies a queue position or a worker (its
// coordinator fans internal points instead).
func (aq *admitQueue) admitSweep(tenant string) error {
	aq.mu.Lock()
	defer aq.mu.Unlock()
	t := aq.tenantLocked(tenant)
	if err := aq.checkJobQuotaLocked(t); err != nil {
		return err
	}
	t.outstanding++
	return nil
}

// enqueueRestored re-admits a journal-replayed pending job, bypassing
// the depth bound and quotas (it was admitted before the restart; a
// quota change must not orphan it) while still registering it against
// the tenant's outstanding count, so quota accounting survives
// recovery.
func (aq *admitQueue) enqueueRestored(j *jobRecord) {
	aq.mu.Lock()
	defer aq.mu.Unlock()
	t := aq.tenantLocked(j.tenant)
	t.outstanding++
	if j.req.Kind == "sweep" {
		return
	}
	aq.pushQueueLocked(t, j)
}

// enqueueInternal admits a coordinator sub-task (sweep point, prefix
// synth): no quota, no depth bound — the coordinator's in-flight budget
// paces it — but it is scheduled under its tenant, so a sweep's points
// compete fairly with other tenants' jobs.
func (aq *admitQueue) enqueueInternal(j *jobRecord) {
	aq.mu.Lock()
	defer aq.mu.Unlock()
	aq.pushQueueLocked(aq.tenantLocked(j.tenant), j)
}

// enqueueInternalFast is enqueueInternal with the global depth bound:
// the cluster compute path fails fast with ErrQueueFull so a saturated
// peer answers busy instead of hoarding work.
func (aq *admitQueue) enqueueInternalFast(j *jobRecord) error {
	aq.mu.Lock()
	defer aq.mu.Unlock()
	if aq.queued >= aq.depth {
		return ErrQueueFull
	}
	aq.pushQueueLocked(aq.tenantLocked(j.tenant), j)
	return nil
}

func (aq *admitQueue) pushQueueLocked(t *tenantState, j *jobRecord) {
	if t.nq == 0 && t.pass < aq.vtime {
		t.pass = aq.vtime
	}
	lane := priorityIndex(j.req.Priority)
	t.q[lane] = append(t.q[lane], j)
	t.nq++
	aq.queued++
	aq.cond.Signal()
}

// pop blocks until a job is dispatchable and returns it, or returns
// ok=false when the queue is closed and drained. It serves the
// smallest-pass tenant whose in-flight quota admits another dispatch;
// during shutdown the in-flight quota is waived so the drain can't wedge.
func (aq *admitQueue) pop() (*jobRecord, bool) {
	aq.mu.Lock()
	defer aq.mu.Unlock()
	for {
		if j, ok := aq.popLocked(); ok {
			return j, true
		}
		if aq.closed && aq.queued == 0 {
			return nil, false
		}
		aq.cond.Wait()
	}
}

func (aq *admitQueue) popLocked() (*jobRecord, bool) {
	for {
		var best *tenantState
		for _, t := range aq.tenants {
			if t.nq == 0 {
				continue
			}
			if !aq.closed && t.maxInFlight > 0 && t.running >= t.maxInFlight {
				continue
			}
			if best == nil || t.pass < best.pass {
				best = t
			}
		}
		if best == nil {
			return nil, false
		}
		j, ok := best.popLane()
		if !ok { // unreachable: nq > 0 implies a queued record
			return nil, false
		}
		aq.queued--
		if j.gone.Load() {
			continue // cancelled while queued; costs no pass advance
		}
		aq.vtime = best.pass
		best.pass += 1 / best.weight
		best.running++
		best.dispatched++
		return j, true
	}
}

// release returns a dispatched job's worker slot to its tenant.
func (aq *admitQueue) release(j *jobRecord) {
	aq.mu.Lock()
	t := aq.tenantLocked(j.tenant)
	t.running--
	aq.mu.Unlock()
	aq.cond.Broadcast()
}

// finished retires one public job from its tenant's outstanding count
// (called exactly once per public job, at its terminal transition).
func (aq *admitQueue) finished(tenant string) {
	aq.mu.Lock()
	t := aq.tenantLocked(tenant)
	if t.outstanding > 0 {
		t.outstanding--
	}
	aq.mu.Unlock()
}

// close stops dispatch admission: pops drain what is queued and then
// report exhaustion.
func (aq *admitQueue) close() {
	aq.mu.Lock()
	aq.closed = true
	aq.mu.Unlock()
	aq.cond.Broadcast()
}

// stats snapshots every tenant's counters.
func (aq *admitQueue) stats() map[string]TenantStats {
	aq.mu.Lock()
	defer aq.mu.Unlock()
	out := make(map[string]TenantStats, len(aq.tenants))
	for name, t := range aq.tenants {
		live := 0
		for lane := range t.q {
			for _, j := range t.q[lane] {
				if j != nil && !j.gone.Load() {
					live++
				}
			}
		}
		out[name] = TenantStats{
			Queued:          live,
			Running:         t.running,
			Outstanding:     t.outstanding,
			Dispatched:      t.dispatched,
			QuotaRejections: t.quotaRejections,
		}
	}
	return out
}
