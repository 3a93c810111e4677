package service

import (
	"context"
	"fmt"
	"time"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/fsim"
	"tels/internal/opt"
	"tels/internal/sim"
)

// runDetached executes fn under the job's context. The synthesis core and
// the packed yield estimator are not preemptible, so the work runs in its
// own goroutine and is abandoned when the context fires: the worker slot
// is released immediately and the orphaned run's result is discarded (its
// flight is already resolved with the context error, so coalesced jobs
// retry).
func runDetached(ctx context.Context, req Request, fn func(context.Context, Request) (Result, error)) (Result, error) {
	type outcome struct {
		res Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := fn(ctx, req)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// runBounded is the default manager exec: the full pipeline, detached.
func runBounded(ctx context.Context, req Request) (Result, error) {
	return runDetached(ctx, req, runPipeline)
}

// runPipeline is the full batch flow of cmd/tels: parse → optimize →
// synthesize → verify → render. The context is checked between stages so
// a cancelled job stops at the next stage boundary even when its worker
// has already moved on.
func runPipeline(ctx context.Context, req Request) (Result, error) {
	var st StageTimes
	t := time.Now()
	src, err := blif.ParseCoreString(req.BLIF)
	st.Parse = time.Since(t)
	if err != nil {
		return Result{}, fmt.Errorf("service: parse: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	t = time.Now()
	optimized, err := opt.Run(req.Script, src)
	st.Optimize = time.Since(t)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	t = time.Now()
	tn, synthStats, err := core.Map(req.Mapper, optimized, req.Options)
	st.Synthesize = time.Since(t)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	verified := "skipped"
	if !req.SkipVerify {
		t = time.Now()
		proof, err := sim.ProveCore(src, tn, 1)
		st.Verify = time.Since(t)
		if err != nil {
			return Result{}, fmt.Errorf("service: verification failed: %w", err)
		}
		verified = proof.String()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	var yield *fsim.YieldReport
	if req.Kind == "yield" {
		model, err := req.Yield.DefectModel()
		if err != nil {
			return Result{}, err
		}
		t = time.Now()
		yield, err = fsim.EstimateYield(src, tn, model, req.Yield.Trials())
		st.Analyze = time.Since(t)
		if err != nil {
			return Result{}, fmt.Errorf("service: yield analysis: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	return Result{
		TLN:        tn.String(),
		Stats:      tn.Stats(),
		SynthStats: synthStats,
		Verified:   verified,
		Yield:      yield,
		Stages:     st,
	}, nil
}
