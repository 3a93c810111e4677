package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/fsim"
)

// This file implements the "sweep" job kind: one submission that fans a
// grid of yield points across the worker pool.
//
// A sweep never occupies a worker itself. Its coordinator goroutine
// first obtains one synthesis prefix per distinct δon by running an
// internal synth job through the pool — content-addressed, so a prefix
// that was ever synthesized before (by a plain synth job, a yield job,
// or an earlier sweep) is a cache hit and a prefix shared by concurrent
// sweeps is coalesced into one run. It then builds one fsim.YieldSession
// per prefix (vector batch packed and golden reference simulated once)
// and fans the points into the queue as internal jobs, at most
// MaxInFlight outstanding at a time. Each point is cached under the
// digest of the equivalent standalone yield request, lands in the job's
// progress table as it completes, and is individually abandoned when the
// sweep is cancelled.

// synthRequest strips an analysis request (sweep or resyn) down to the
// synthesis prefix of one δon value.
func synthRequest(base Request, deltaOn int) Request {
	req := base
	req.Kind = "synth"
	req.Yield = YieldSpec{}
	req.Sweep = SweepSpec{}
	req.Resyn = ResynSpec{}
	req.Options.DeltaOn = deltaOn
	return req
}

// pointRequest is the standalone yield request equivalent to one grid
// point; its digest is the point's cache address.
func pointRequest(base Request, p SweepPoint) Request {
	req := base
	req.Kind = "yield"
	req.Sweep = SweepSpec{}
	req.Options.DeltaOn = p.DeltaOn
	req.Yield.Model = p.Model
	req.Yield.V = p.V
	return req
}

// submitInternal enqueues a coordinator sub-task. Unlike Submit it is
// exempt from the depth bound and quotas — the coordinator is paced by
// its in-flight budget, not by ErrQueueFull — but the record is
// scheduled under its tenant, so a sweep's fan-out competes fairly
// with other tenants' work. The record is invisible to the public job
// table.
func (m *Manager) submitInternal(ctx context.Context, id, tenant string, req Request, digest string, run func(context.Context, Request) (Result, error)) (*jobRecord, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	jctx, cancel := context.WithCancel(ctx)
	j := &jobRecord{
		id:       id,
		req:      req,
		digest:   digest,
		tenant:   tenant,
		state:    StateQueued,
		created:  time.Now(),
		internal: true,
		run:      run,
		ctx:      jctx,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	m.admit.enqueueInternal(j)
	return j, nil
}

// prefix is the per-δon shared state of a sweep: the synthesized
// network's result plus a yield session holding the packed batch and
// golden reference every point of that δon reuses.
type prefix struct {
	res  Result
	sess *fsim.YieldSession
}

// runSweep coordinates one sweep job from its own goroutine.
func (m *Manager) runSweep(j *jobRecord) {
	defer m.coordWg.Done()
	start := time.Now()

	m.mu.Lock()
	if j.state != StateQueued { // cancelled before the coordinator ran
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	timeout := j.req.Timeout
	if timeout <= 0 {
		timeout = m.cfg.DefaultTimeout
	}
	points := j.req.Sweep.points(j.req)
	j.sweepTotal = len(points)
	j.sweepPoints = make([]*SweepPoint, len(points))
	m.emitLocked(j, eventState, nil, nil)
	m.mu.Unlock()
	m.metrics.sweepPointsPlanned.Add(int64(len(points)))

	ctx, cancel := context.WithTimeout(j.ctx, timeout)
	defer cancel()

	prefixes, err := m.sweepPrefixes(ctx, j, points)
	if err != nil {
		m.finish(j, nil, err)
		return
	}

	// Clustered sweeps default their budget to the fleet's aggregate
	// worker count: most points run on other peers, so pacing by the
	// local pool alone would leave the fleet idle.
	budget := j.req.Sweep.MaxInFlight
	if budget <= 0 {
		budget = m.cfg.Workers
		if cl := m.cfg.Cluster; cl != nil {
			budget = m.cfg.Workers * cl.Size()
		}
	}
	sem := make(chan struct{}, budget)
	var wg sync.WaitGroup
fan:
	for i := range points {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break fan
		}
		p := points[i]
		preq := pointRequest(j.req, p)
		pdigest, derr := Digest(preq)
		if derr != nil { // unreachable: the sweep request already parsed
			<-sem
			m.finish(j, nil, derr)
			return
		}
		wg.Add(1)
		go func(p SweepPoint, preq Request, pdigest string) {
			defer wg.Done()
			defer func() { <-sem }()
			m.runPoint(ctx, j, prefixes[p.DeltaOn], p, preq, pdigest)
		}(p, preq, pdigest)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		m.finish(j, nil, err)
		return
	}

	m.mu.Lock()
	sr := &SweepResult{
		TotalPoints:  j.sweepTotal,
		DonePoints:   j.sweepDone,
		FailedPoints: j.sweepFailed,
		WallMS:       time.Since(start).Milliseconds(),
	}
	for _, sp := range j.sweepPoints {
		if sp != nil {
			sr.Points = append(sr.Points, *sp)
		}
	}
	m.mu.Unlock()
	res := Result{Sweep: sr}
	// Persist the aggregated curve under the sweep's own digest so a
	// restart re-serves the finished sweep from disk (the individual
	// points are already persisted under their standalone-yield
	// digests as they complete).
	m.persistResult(j.digest, res)
	m.finish(j, &res, nil)
}

// sweepPrefixes synthesizes (or cache-loads) one prefix per distinct δon
// in grid order and builds the shared yield session for each.
func (m *Manager) sweepPrefixes(ctx context.Context, j *jobRecord, points []SweepPoint) (map[int]*prefix, error) {
	golden, err := blif.ParseCoreString(j.req.BLIF)
	if err != nil {
		return nil, fmt.Errorf("service: parse blif: %w", err)
	}
	prefixes := make(map[int]*prefix)
	for _, p := range points {
		if _, ok := prefixes[p.DeltaOn]; ok {
			continue
		}
		sreq := synthRequest(j.req, p.DeltaOn)
		sdigest, err := Digest(sreq)
		if err != nil {
			return nil, err
		}
		rec, err := m.submitInternal(ctx, fmt.Sprintf("%s.synth-don%d", j.id, p.DeltaOn), j.tenant, sreq, sdigest, nil)
		if err != nil {
			return nil, err
		}
		select {
		case <-rec.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		m.mu.Lock()
		res, rerr := rec.result, rec.err
		m.mu.Unlock()
		if rerr != nil {
			return nil, fmt.Errorf("service: sweep synthesis (δon=%d): %w", p.DeltaOn, rerr)
		}
		tn, err := core.ParseTLNString(res.TLN)
		if err != nil {
			return nil, fmt.Errorf("service: sweep synthesis (δon=%d): malformed tln: %w", p.DeltaOn, err)
		}
		sess, err := fsim.NewYieldSession(golden, tn, fsim.YieldConfig{Seed: j.req.Yield.Seed})
		if err != nil {
			return nil, fmt.Errorf("service: sweep session (δon=%d): %w", p.DeltaOn, err)
		}
		prefixes[p.DeltaOn] = &prefix{res: *res, sess: sess}
	}
	return prefixes, nil
}

// pointRunner returns the executor of one grid point: a Monte-Carlo
// estimate on the prefix's shared session. The returned Result has the
// exact shape of a standalone yield job with the same spec, so the two
// can share cache entries.
func (m *Manager) pointRunner(px *prefix, index int) func(context.Context, Request) (Result, error) {
	hook := m.sweepPointStart
	return func(ctx context.Context, req Request) (Result, error) {
		if hook != nil {
			hook(index)
		}
		model, err := req.Yield.DefectModel()
		if err != nil {
			return Result{}, err
		}
		t := time.Now()
		rep, err := px.sess.Estimate(model, req.Yield.Trials())
		if err != nil {
			return Result{}, fmt.Errorf("service: yield analysis: %w", err)
		}
		res := px.res
		res.CacheHit = false
		res.Yield = rep
		res.Stages.Analyze = time.Since(t)
		return res, nil
	}
}

// recordPoint folds one finished point into the sweep's progress table;
// the outcome may come from a local run or a peer's compute response.
func (m *Manager) recordPoint(j *jobRecord, p SweepPoint, res *Result, err error) {
	defer m.flushJournal() // after the deferred unlock (LIFO)
	m.mu.Lock()
	defer m.mu.Unlock()
	sp := p // grid coordinates
	switch {
	case err != nil:
		sp.Error = err.Error()
		j.sweepFailed++
	case res != nil:
		sp.CacheHit = res.CacheHit
		sp.Gates = res.Stats.Gates
		sp.Area = res.Stats.Area
		if res.Yield != nil {
			sp.FailureRate = res.Yield.FailureRate
			sp.Yield = res.Yield.Yield
			sp.Report = res.Yield
		}
	}
	j.sweepPoints[p.Index] = &sp
	j.sweepDone++
	m.metrics.sweepPointsDone.Add(1)
	m.journalProgressLocked(j, j.sweepDone, j.sweepTotal)
	m.emitLocked(j, eventProgress, &sp, nil)
}
