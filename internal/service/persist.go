package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"tels/internal/store"
)

// This file wires the manager to the durable store (internal/store).
// With Config.Store set, every public job's lifecycle is journaled to
// the WAL (submitted with its full normalized request, started,
// progress, and one terminal event) and every freshly computed result
// is persisted to the content-addressed result store under its request
// digest. At construction the manager replays the journal: terminal
// jobs come back into the job table with their results loaded from
// disk, pending jobs (queued, running, or interrupted by a graceful
// drain) are re-enqueued under their original IDs — their requests
// carry the deterministic seeds, so replayed sweeps and resyns
// reproduce bit-identical digests — and the LRU cache is warmed from
// the persisted results so finished work is re-served without
// recomputation. Without a store every hook is a no-op and the manager
// behaves exactly as before.
//
// Journal appends and result writes are best-effort: a persistence
// error never fails the job, it only increments store_errors (the job
// would merely be recomputed after a restart).

// replayedJob pairs one folded journal entry with its decoded request.
type replayedJob struct {
	st  store.JobState
	req Request
	err error // request decode/normalize failure (journal damage)
}

// decodeBacklog parses the store's recovered job states into requests.
func decodeBacklog(st *store.Store) []replayedJob {
	rec := st.Recovered()
	out := make([]replayedJob, 0, len(rec.Jobs))
	for _, js := range rec.Jobs {
		rj := replayedJob{st: js}
		if err := json.Unmarshal(js.Request, &rj.req); err != nil {
			rj.err = fmt.Errorf("service: replay job %s: decode request: %w", js.ID, err)
		} else if err := rj.req.Normalize(); err != nil {
			rj.err = fmt.Errorf("service: replay job %s: %w", js.ID, err)
		}
		out = append(out, rj)
	}
	return out
}

// restore replays the decoded backlog into the job table and warms the
// cache, returning the pending jobs in journal order. It runs from New
// before any worker starts: the caller re-admits the returned list
// (bypassing quotas — the jobs were admitted before the restart) and
// only then starts workers and recovered sweep coordinators.
func (m *Manager) restore(backlog []replayedJob) []*jobRecord {
	start := time.Now()
	m.warmCache()
	var pending []*jobRecord
	for _, rj := range backlog {
		if j := m.restoreJob(rj); j != nil {
			pending = append(pending, j)
		}
		m.storeReplayed++
	}
	m.storeRecoveryMS = time.Since(start).Milliseconds()
	return pending
}

// restoreJob rebuilds one journal entry under its original ID:
// terminal states land directly in the job table (results re-read from
// the content-addressed store), pending states are returned for New to
// re-admit — sweep coordinators must not start before the backlog is
// enqueued and the workers are draining, so recovered sweeps resume
// against a live pool. Records written before the journal carried
// tenancy (schema v1) have an empty tenant and replay under the default
// tenant — pinned by test, since changing it would silently re-own old
// backlogs.
func (m *Manager) restoreJob(rj replayedJob) *jobRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bumpSeqLocked(rj.st.ID)
	j := newJobRecord(m.baseCtx, rj.st.ID, rj.st.Tenant, rj.req, rj.st.Digest)
	if rj.st.Submitted != 0 {
		j.created = time.Unix(0, rj.st.Submitted)
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)

	if rj.err != nil {
		j.endRestored(rj.st, StateFailed, rj.err, nil)
		return nil
	}
	switch rj.st.Status {
	case store.EventFinished:
		if res, ok := m.loadResult(rj.st.Digest); ok {
			j.endRestored(rj.st, StateDone, nil, res)
			return nil
		}
		// The journal says finished but the result file is gone (e.g. a
		// crash between the result write and the journal append, or a
		// pruned results directory): recompute.
	case store.EventFailed:
		j.endRestored(rj.st, StateFailed, errors.New(rj.st.Error), nil)
		return nil
	case store.EventCanceled:
		j.endRestored(rj.st, StateCancelled, context.Canceled, nil)
		return nil
	}
	// Submitted, started or interrupted: back into the queue.
	m.storeRequeued++
	return j
}

// endRestored moves a replayed record to its journaled terminal state.
func (j *jobRecord) endRestored(st store.JobState, state State, err error, res *Result) {
	j.state, j.err, j.result = state, err, res
	j.cancelled = state == StateCancelled
	j.finished = j.created
	if st.Finished != 0 {
		j.finished = time.Unix(0, st.Finished)
	}
	j.cancel()
	close(j.done)
}

// bumpSeqLocked keeps the ID counter above every replayed ID so new
// submissions never collide with recovered ones.
func (m *Manager) bumpSeqLocked(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "job-%06d", &n); err == nil && n > m.seq {
		m.seq = n
	}
}

// loadResult reads and decodes one persisted result.
func (m *Manager) loadResult(digest string) (*Result, bool) {
	if digest == "" {
		return nil, false
	}
	data, err := m.store.GetResult(digest)
	if err != nil {
		return nil, false
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, false
	}
	return &res, true
}

// warmCache preloads the LRU from the persisted results, newest first,
// up to the cache capacity — so recovered results are re-served from
// memory and replayed sweep points hit instead of recomputing. Loaded
// oldest-to-newest so the LRU's eviction order matches file age.
func (m *Manager) warmCache() {
	capEntries := m.cfg.CacheEntries
	if capEntries <= 0 {
		capEntries = DefaultCacheEntries
	}
	digests, err := m.store.ResultDigests()
	if err != nil {
		m.storeErrs.Add(1)
		return
	}
	if len(digests) > capEntries {
		digests = digests[:capEntries]
	}
	for i := len(digests) - 1; i >= 0; i-- {
		res, ok := m.loadResult(digests[i])
		if !ok {
			continue
		}
		m.cache.Put(digests[i], *res)
		m.storeWarmed++
	}
}

// journalLocked captures one event, stamping the time. The caller
// holds m.mu — the capture order under the lock is the order the
// events reach the WAL — and calls flushJournal after releasing it, so
// the disk write itself never runs inside the manager's critical
// section.
func (m *Manager) journalLocked(ev store.Event) {
	if m.store == nil {
		return
	}
	ev.Unix = time.Now().UnixNano()
	m.journalPending = append(m.journalPending, ev)
}

// flushJournal appends every captured event to the WAL; errors only
// count. Callers must not hold m.mu. journalMu serializes flushers, so
// batches reach the store in capture order; a concurrent flusher may
// have already drained this caller's events, in which case the append
// completed before that flusher released journalMu — an event is
// always durable by the time its capturer's flush returns.
func (m *Manager) flushJournal() {
	if m.store == nil {
		return
	}
	m.journalMu.Lock()
	defer m.journalMu.Unlock()
	m.mu.Lock()
	evs := m.journalPending
	m.journalPending = nil
	m.mu.Unlock()
	for _, ev := range evs {
		if err := m.store.Append(ev); err != nil {
			m.storeErrs.Add(1)
		}
	}
}

// journalSubmitLocked journals a public job's submission with its full
// normalized request, the replay unit of recovery.
func (m *Manager) journalSubmitLocked(j *jobRecord) {
	if m.store == nil {
		return
	}
	req, err := json.Marshal(j.req)
	if err != nil {
		m.storeErrs.Add(1)
		return
	}
	m.journalLocked(store.Event{
		Type:     store.EventSubmitted,
		JobID:    j.id,
		Kind:     j.req.Kind,
		Digest:   j.digest,
		Request:  req,
		Tenant:   j.tenant,
		Priority: j.req.Priority,
	})
}

// journalProgressLocked journals a sweep's done/total counters or a
// resyn's iteration count, so an operator can see how far a recovered
// backlog had progressed.
func (m *Manager) journalProgressLocked(j *jobRecord, done, total int) {
	if m.store == nil || j.internal {
		return
	}
	m.journalLocked(store.Event{Type: store.EventProgress, JobID: j.id, Done: done, Total: total})
}

// journalFinishLocked journals a public job's terminal transition.
// During a graceful drain, cancellations the user didn't ask for are
// journaled as interrupted, so the next start re-enqueues them instead
// of losing them.
func (m *Manager) journalFinishLocked(j *jobRecord) {
	if m.store == nil || j.internal {
		return
	}
	ev := store.Event{JobID: j.id, Digest: j.digest}
	switch j.state {
	case StateDone:
		ev.Type = store.EventFinished
	case StateCancelled:
		ev.Type = store.EventCanceled
		if m.draining && !j.cancelled {
			ev.Type = store.EventInterrupted
		}
	default:
		ev.Type = store.EventFailed
		if j.err != nil {
			ev.Error = j.err.Error()
		}
	}
	m.journalLocked(ev)
}

// persistResult writes a freshly computed result to the
// content-addressed store (no-op without a store, idempotent per
// digest).
func (m *Manager) persistResult(digest string, res Result) {
	if m.store == nil {
		return
	}
	data, err := json.Marshal(res)
	if err == nil {
		err = m.store.PutResult(digest, data)
	}
	if err != nil {
		m.storeErrs.Add(1)
	}
}
