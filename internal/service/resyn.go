package service

import (
	"context"
	"fmt"
	"time"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/resyn"
)

// This file implements the "resyn" job kind: the defect-aware selective
// re-synthesis loop of internal/resyn run as a service job.
//
// A resyn job occupies one worker like a synth job (the loop is
// sequential), but its synthesis prefix goes through the same
// content-addressed path as everything else: the baseline network is
// looked up under the digest of the equivalent standalone synth request
// before the pipeline runs, and the per-gate (function, δon) fragments
// the loop derives are memoised in the shared result cache under a
// "resyn:"-prefixed digest namespace, so repeated hardenings — across
// iterations, jobs, and benchmarks — synthesize once. Per-iteration
// progress (yield, area, hardened gates) streams through the job table
// and is visible to clients polling GET /v1/jobs/{id}.

// resynMemoPrefix namespaces fragment memo entries in the result cache,
// away from request digests.
const resynMemoPrefix = "resyn:"

// cacheMemo adapts the manager's result cache to the loop's Memo
// interface: fragment .tln text rides in Result.TLN.
type cacheMemo struct{ m *Manager }

// Get implements resyn.Memo.
func (c cacheMemo) Get(key string) (string, bool) {
	res, ok := c.m.cache.Get(resynMemoPrefix + key)
	if !ok {
		return "", false
	}
	c.m.metrics.resynMemoHits.Add(1)
	return res.TLN, true
}

// Put implements resyn.Memo.
func (c cacheMemo) Put(key, tln string) {
	evicted := c.m.cache.Put(resynMemoPrefix+key, Result{TLN: tln})
	c.m.metrics.cacheEvictions.Add(int64(evicted))
}

// resynBaseline obtains the synthesized starting network: a cache hit
// under the equivalent synth request's digest when possible, a pipeline
// run otherwise (cached for the next job).
func (m *Manager) resynBaseline(ctx context.Context, req Request) (Result, error) {
	sreq := synthRequest(req, req.Options.DeltaOn)
	sdigest, err := Digest(sreq)
	if err != nil {
		return Result{}, err
	}
	if res, ok := m.cache.Get(sdigest); ok {
		m.metrics.cacheHits.Add(1)
		res.CacheHit = true
		return res, nil
	}
	m.metrics.cacheMisses.Add(1)
	res, err := m.exec(ctx, sreq)
	if err != nil {
		return Result{}, err
	}
	m.persistResult(sdigest, res)
	evicted := m.cache.Put(sdigest, res)
	m.metrics.cacheEvictions.Add(int64(evicted))
	m.metrics.addStages(res.Stages)
	return res, nil
}

// resynRunner returns the executor of one resyn job.
func (m *Manager) resynRunner(j *jobRecord) func(context.Context, Request) (Result, error) {
	return func(ctx context.Context, req Request) (Result, error) {
		base, err := m.resynBaseline(ctx, req)
		if err != nil {
			return Result{}, fmt.Errorf("service: resyn baseline: %w", err)
		}
		golden, err := blif.ParseCoreString(req.BLIF)
		if err != nil {
			return Result{}, fmt.Errorf("service: parse blif: %w", err)
		}
		tn, err := core.ParseTLNString(base.TLN)
		if err != nil {
			return Result{}, fmt.Errorf("service: resyn baseline: malformed tln: %w", err)
		}
		model, err := req.Yield.DefectModel()
		if err != nil {
			return Result{}, err
		}

		cfg := resyn.Config{
			Model:       model,
			Yield:       req.Yield.Trials(),
			Synth:       req.Options,
			TopK:        req.Resyn.TopK,
			DeltaStep:   req.Resyn.DeltaStep,
			MaxDeltaOn:  req.Resyn.MaxDeltaOn,
			MaxIters:    req.Resyn.MaxIters,
			TargetYield: req.Resyn.TargetYield,
			AreaBudget:  req.Resyn.AreaBudget,
			Memo:        cacheMemo{m},
			OnIteration: func(it resyn.Iteration) {
				m.metrics.resynIterations.Add(1)
				m.metrics.resynGatesHardened.Add(int64(len(it.Hardened)))
				m.mu.Lock()
				j.resynIters = append(j.resynIters, it)
				m.journalProgressLocked(j, len(j.resynIters), req.Resyn.MaxIters)
				m.emitLocked(j, eventProgress, nil, &it)
				m.mu.Unlock()
				m.flushJournal()
			},
		}

		t := time.Now()
		rep, err := resyn.Run(ctx, golden, tn, cfg)
		if err != nil {
			return Result{}, fmt.Errorf("service: resyn: %w", err)
		}
		res := Result{
			TLN:        rep.Network.String(),
			Stats:      rep.Network.Stats(),
			SynthStats: base.SynthStats,
			// Every accepted splice passed the session's full-batch clean
			// check, so the hardened network is simulation-verified even
			// when the baseline was proved.
			Verified: "simulated",
			Resyn:    rep,
			Stages:   base.Stages,
		}
		if base.Verified == "skipped" {
			res.Verified = base.Verified
		}
		res.Stages.Analyze = time.Since(t)
		return res, nil
	}
}
