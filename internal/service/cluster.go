package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"tels/internal/cluster"
)

// This file is the manager's side of the cluster dispatch layer. The
// internal/cluster package moves opaque JSON keyed by digests; here
// those bytes get their meaning: results are Result JSON, compute
// requests are the internal Request JSON (Normalize is idempotent, so a
// request re-normalized on the serving peer digests identically), and
// compute responses are terminal Job snapshots.
//
// Dispatch policy, in order of preference for a digest owned elsewhere:
//
//  1. remote fill — ask the owner for a cached/persisted result before
//     computing locally (bounded by FillTimeout; a miss or a slow owner
//     costs at most that);
//  2. remote compute — sweep points are fanned to their owner peers,
//     hedged with a local run once the request outlives the fleet's
//     recent latency profile;
//  3. steal — a down or saturated owner degrades to local compute,
//     never to a failed point.

// remoteFill asks the digest's owner for an existing result. It returns
// false — never an error — when the digest is self-owned, the cluster is
// off, the owner is down, or the owner simply doesn't have the result:
// filling is an optimization in front of local compute.
func (m *Manager) remoteFill(ctx context.Context, digest string) (Result, bool) {
	cl := m.cfg.Cluster
	if cl == nil {
		return Result{}, false
	}
	owner, self := cl.Owner(digest)
	if self || !cl.Available(owner) {
		return Result{}, false
	}
	fctx, cancel := context.WithTimeout(ctx, cl.FillTimeout())
	defer cancel()
	data, err := cl.Fetch(fctx, owner, digest)
	if err != nil {
		m.metrics.clusterRemoteMisses.Add(1)
		return Result{}, false
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		m.metrics.clusterRemoteMisses.Add(1)
		return Result{}, false
	}
	m.metrics.clusterRemoteHits.Add(1)
	return res, true
}

// pushToOwner replicates a freshly computed result to the digest's owner
// so the owner can serve future fills for work it never ran. Fire and
// forget: a failed push costs nothing but a future fill miss.
func (m *Manager) pushToOwner(digest string, res Result) {
	cl := m.cfg.Cluster
	if cl == nil {
		return
	}
	owner, self := cl.Owner(digest)
	if self || !cl.Available(owner) {
		return
	}
	data, err := json.Marshal(res)
	if err != nil {
		return
	}
	m.pushWg.Add(1)
	go func() {
		defer m.pushWg.Done()
		ctx, cancel := context.WithTimeout(m.baseCtx, 2*time.Second)
		defer cancel()
		if cl.Push(ctx, owner, digest, data) == nil {
			m.metrics.clusterPushes.Add(1)
		}
	}()
}

// runPoint evaluates one sweep grid point, picking the venue: the
// digest's owner peer when that is someone else and reachable (with a
// local hedge against stragglers), the local pool otherwise. An
// unavailable owner is stolen from, not surfaced as a point error.
func (m *Manager) runPoint(ctx context.Context, j *jobRecord, px *prefix, p SweepPoint, preq Request, pdigest string) {
	if cl := m.cfg.Cluster; cl != nil {
		if owner, self := cl.Owner(pdigest); !self {
			if cl.Available(owner) {
				res, err := m.remotePoint(ctx, j, px, p, preq, pdigest, owner)
				if err == nil || ctx.Err() != nil || !errors.Is(err, cluster.ErrUnavailable) {
					m.recordPoint(j, p, res, err)
					return
				}
				// The owner went away mid-request despite retries.
			}
			m.metrics.clusterSteals.Add(1)
		}
	}
	res, err := m.localPoint(ctx, j, px, p, preq, pdigest)
	m.recordPoint(j, p, res, err)
}

// localPoint runs one grid point through the local queue against the
// sweep's shared session.
func (m *Manager) localPoint(ctx context.Context, j *jobRecord, px *prefix, p SweepPoint, preq Request, pdigest string) (*Result, error) {
	rec, err := m.submitInternal(ctx, fmt.Sprintf("%s.p%d", j.id, p.Index), j.tenant, preq, pdigest, m.pointRunner(px, p.Index))
	if err != nil {
		return nil, err
	}
	<-rec.done
	m.mu.Lock()
	res, rerr := rec.result, rec.err
	m.mu.Unlock()
	return res, rerr
}

// pointOutcome carries one venue's answer for a hedged point.
type pointOutcome struct {
	res *Result
	err error
}

// remotePoint runs one grid point on its owner peer, hedging with a
// local run once the request has been outstanding longer than the
// cluster's hedge delay. Whichever venue finishes first wins; the loser
// is cancelled — the remote side observes the closed connection and
// cancels the job, the local side abandons the worker slot.
func (m *Manager) remotePoint(ctx context.Context, j *jobRecord, px *prefix, p SweepPoint, preq Request, pdigest, owner string) (*Result, error) {
	cl := m.cfg.Cluster
	body, err := json.Marshal(preq)
	if err != nil {
		return nil, err
	}
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	remoteCh := make(chan pointOutcome, 1)
	go func() {
		data, err := cl.Compute(rctx, owner, j.tenant, body)
		if err != nil {
			remoteCh <- pointOutcome{nil, err}
			return
		}
		remoteCh <- decodeRemoteJob(data)
	}()
	m.metrics.clusterRemotePoints.Add(1)

	hedge := time.NewTimer(cl.HedgeDelay())
	defer hedge.Stop()
	select {
	case out := <-remoteCh:
		return out.res, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-hedge.C:
	}

	// The remote request is a straggler: race a local run against it.
	m.metrics.clusterHedges.Add(1)
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	localCh := make(chan pointOutcome, 1)
	go func() {
		res, err := m.localPoint(hctx, j, px, p, preq, pdigest)
		localCh <- pointOutcome{res, err}
	}()
	select {
	case out := <-remoteCh:
		if out.err == nil {
			m.metrics.clusterHedgesLost.Add(1)
			hcancel() // the local hedge lost: release its worker
			return out.res, nil
		}
		// The straggler ultimately failed; the hedge is now the primary.
		lout := <-localCh
		if lout.err == nil {
			m.metrics.clusterHedgesWon.Add(1)
		}
		return lout.res, lout.err
	case out := <-localCh:
		if out.err != nil {
			// The hedge failed first (e.g. sweep cancelled); fall back to
			// whatever the remote produces rather than racing to report.
			rout := <-remoteCh
			if rout.err == nil {
				m.metrics.clusterHedgesLost.Add(1)
				return rout.res, nil
			}
			return out.res, out.err
		}
		m.metrics.clusterHedgesWon.Add(1)
		rcancel() // the remote straggler lost: tear down its connection
		return out.res, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// decodeRemoteJob folds a peer's terminal Job JSON into a point outcome.
func decodeRemoteJob(data []byte) pointOutcome {
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		return pointOutcome{nil, fmt.Errorf("service: decode remote job: %w", err)}
	}
	switch {
	case job.State == StateDone && job.Result != nil:
		return pointOutcome{job.Result, nil}
	case job.Error != "":
		return pointOutcome{nil, fmt.Errorf("service: remote compute: %s", job.Error)}
	}
	return pointOutcome{nil, fmt.Errorf("service: remote compute ended %s without a result", job.State)}
}

// CachedResult serves a peer's cache-fill request: the in-memory cache
// first, then the content-addressed store. It never computes.
func (m *Manager) CachedResult(digest string) (*Result, bool) {
	if res, ok := m.cache.Get(digest); ok {
		m.metrics.clusterFillsServed.Add(1)
		return &res, true
	}
	if m.store == nil {
		return nil, false
	}
	if res, ok := m.loadResult(digest); ok {
		m.metrics.clusterFillsServed.Add(1)
		return res, true
	}
	return nil, false
}

// AcceptResult stores a result a non-owner peer computed for a digest
// this peer owns: persisted (when durable) and cached, so future fills
// hit.
func (m *Manager) AcceptResult(digest string, res Result) {
	res.CacheHit = false
	m.persistResult(digest, res)
	m.cacheResult(digest, res)
}

// ComputeSyncAs runs one request to completion on the local pool under
// the originating tenant and returns the terminal job snapshot. It backs
// the peer-to-peer compute endpoint: the job is internal (absent from
// the public table and the journal), a full queue fails fast with
// ErrQueueFull so the calling peer can back off or steal, and cancelling
// ctx — the caller hanging up — cancels the job and releases its worker.
// Fanned-out work is scheduled under the tenant that submitted the sweep
// on the coordinating peer, so weighted-fair admission holds fleet-wide,
// not just where the submission landed.
func (m *Manager) ComputeSyncAs(ctx context.Context, tenant string, req Request) (Job, error) {
	if err := req.Normalize(); err != nil {
		return Job{}, err
	}
	switch req.Kind {
	case "synth", "yield":
	default:
		return Job{}, fmt.Errorf("service: cluster compute does not accept kind %q (want synth or yield)", req.Kind)
	}
	digest, err := Digest(req)
	if err != nil {
		return Job{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Job{}, ErrClosed
	}
	m.seq++
	id := fmt.Sprintf("rpc-%06d", m.seq)
	m.mu.Unlock()

	j := newJobRecord(m.baseCtx, id, tenant, req, digest)
	j.internal = true
	if err := m.admit.enqueueInternalFast(j); err != nil {
		j.cancel()
		return Job{}, err
	}
	m.metrics.clusterComputeServed.Add(1)

	select {
	case <-j.done:
	case <-ctx.Done():
		m.mu.Lock()
		j.cancelled = true
		m.mu.Unlock()
		j.cancel()
		<-j.done // the worker observes the cancel and finishes the record
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.snapshotLocked(), nil
}
