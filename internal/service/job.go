// Package service turns the batch TELS flow into a long-lived synthesis
// service: a job manager with a bounded worker pool runs the
// BLIF → optimize → synthesize → verify pipeline per job, a
// content-addressed cache short-circuits repeated requests, and a typed
// job API (submit, status, result, list, cancel) backs the cmd/telsd
// HTTP daemon.
package service

import (
	"fmt"
	"time"

	"tels/internal/core"
	"tels/internal/fsim"
	"tels/internal/opt"
	"tels/internal/resyn"
)

// State is the lifecycle phase of a job.
type State string

// Job states. A job moves queued → running → one of the terminal states
// (done, failed, cancelled). Cancellation may also strike while queued.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Scheduling priorities. Within one tenant's queue, higher-priority jobs
// dispatch first; across tenants the weighted-fair scheduler still
// governs, so priority never lets one tenant crowd out another.
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// priorityIndex maps a normalized priority to its per-tenant queue lane
// (0 dispatches first).
func priorityIndex(p string) int {
	switch p {
	case PriorityHigh:
		return 0
	case PriorityLow:
		return 2
	}
	return 1
}

// YieldSpec configures the analysis stage of a yield job.
type YieldSpec struct {
	// Model selects the defect model: "weight" (default), "drift", or
	// "stuck".
	Model string `json:"model,omitempty"`
	// V is the variation multiplier for weight/drift models (default 0.8,
	// the paper's §VI-C midpoint).
	V float64 `json:"v,omitempty"`
	// P is the per-gate stuck probability for the stuck model
	// (default 0.01).
	P float64 `json:"p,omitempty"`
	// MaxTrials caps the Monte-Carlo defect instances (0 = fsim default,
	// at most MaxYieldTrials).
	MaxTrials int `json:"max_trials,omitempty"`
	// HalfWidth is the early-stop CI half-width (0 = fsim default).
	HalfWidth float64 `json:"half_width,omitempty"`
	// Seed drives vector sampling and defect drawing.
	Seed int64 `json:"seed,omitempty"`
}

// Trials is the spec's Monte-Carlo budget as an fsim configuration.
func (y YieldSpec) Trials() fsim.YieldConfig {
	return fsim.YieldConfig{MaxTrials: y.MaxTrials, HalfWidth: y.HalfWidth, Seed: y.Seed}
}

// DefectModel instantiates the configured fsim model. It refuses a
// negative V and a P outside [0, 1], whichever model is named.
func (y YieldSpec) DefectModel() (fsim.DefectModel, error) {
	if y.V < 0 {
		return nil, fmt.Errorf("service: negative yield v %g", y.V)
	}
	if y.P < 0 || y.P > 1 {
		return nil, fmt.Errorf("service: yield p %g outside [0, 1]", y.P)
	}
	switch y.Model {
	case "weight":
		return fsim.WeightVariation{V: y.V}, nil
	case "drift":
		return fsim.ThresholdDrift{V: y.V}, nil
	case "stuck":
		return fsim.StuckAt{P: y.P}, nil
	}
	return nil, fmt.Errorf("service: unknown defect model %q (want weight, drift, or stuck)", y.Model)
}

// ResynSpec configures the defect-aware selective re-synthesis loop of a
// "resyn" job. Zero values take the loop's defaults; Normalize makes
// them explicit so equal effective configs share one digest.
type ResynSpec struct {
	// TopK bounds the blamed gates hardened per iteration (default 3).
	TopK int `json:"top_k,omitempty"`
	// DeltaStep is the per-iteration δon increment (default 1).
	DeltaStep int `json:"delta_step,omitempty"`
	// MaxDeltaOn caps any single gate's margin (default base δon+8).
	MaxDeltaOn int `json:"max_delta_on,omitempty"`
	// MaxIters caps hardening iterations (default 10).
	MaxIters int `json:"max_iters,omitempty"`
	// TargetYield stops the loop once an estimate reaches it (0 = run to
	// convergence or the iteration cap).
	TargetYield float64 `json:"target_yield,omitempty"`
	// AreaBudget rejects hardenings that would exceed it (0 = unbounded).
	AreaBudget int `json:"area_budget,omitempty"`
}

// MaxSweepPoints bounds the grid of one sweep job.
const MaxSweepPoints = 1024

// MaxYieldTrials bounds YieldSpec.MaxTrials. The trial loop does not
// watch the job's context, so an unbounded cap with a half-width no
// estimate reaches would hold a CPU long after the deadline frees the
// worker slot.
const MaxYieldTrials = 100_000

// SweepSpec is the grid of a sweep job. Each listed axis replaces the
// corresponding base value (Options.DeltaOn for DeltaOns, Yield.Model for
// Models, Yield.V for Vs); an absent axis contributes the single base
// value. The grid is the cross product of the axes, ordered δon-major,
// then model, then v.
type SweepSpec struct {
	// Vs sweeps the variation multiplier of the weight/drift models.
	Vs []float64 `json:"vs,omitempty"`
	// DeltaOns sweeps the synthesis δon margin; each distinct value is
	// synthesized once and shared by its points.
	DeltaOns []int `json:"delta_ons,omitempty"`
	// Models sweeps the defect model ("weight", "drift", "stuck").
	Models []string `json:"models,omitempty"`
	// MaxInFlight bounds the sweep's concurrently outstanding points
	// (0 = the manager's worker count).
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// points expands the grid against the base request; every returned
// SweepPoint carries only its grid coordinates.
func (s SweepSpec) points(base Request) []SweepPoint {
	dons := s.DeltaOns
	if len(dons) == 0 {
		dons = []int{base.Options.DeltaOn}
	}
	models := s.Models
	if len(models) == 0 {
		models = []string{base.Yield.Model}
	}
	vs := s.Vs
	if len(vs) == 0 {
		vs = []float64{base.Yield.V}
	}
	out := make([]SweepPoint, 0, len(dons)*len(models)*len(vs))
	for _, don := range dons {
		for _, model := range models {
			for _, v := range vs {
				out = append(out, SweepPoint{
					Index: len(out), DeltaOn: don, Model: model, V: v, P: base.Yield.P,
				})
			}
		}
	}
	return out
}

// SweepPoint is one grid point of a sweep: its coordinates plus, once
// evaluated, the per-point yield result.
type SweepPoint struct {
	// Index is the point's position in the grid expansion order.
	Index int `json:"index"`
	// DeltaOn, Model, V, and P locate the point on the grid.
	DeltaOn int     `json:"delta_on"`
	Model   string  `json:"model"`
	V       float64 `json:"v"`
	P       float64 `json:"p,omitempty"`
	// FailureRate and Yield summarize the point's Monte-Carlo outcome.
	FailureRate float64 `json:"failure_rate"`
	Yield       float64 `json:"yield"`
	// Gates and Area describe the δon's synthesized network (Eq. 14).
	Gates int `json:"gates"`
	Area  int `json:"area"`
	// CacheHit marks points served from the content-addressed cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error is set when this point failed; the sweep still completes.
	Error string `json:"error,omitempty"`
	// Report is the point's full yield report.
	Report *fsim.YieldReport `json:"report,omitempty"`
}

// SweepResult aggregates a finished sweep into an ordered curve.
type SweepResult struct {
	TotalPoints  int `json:"total_points"`
	DonePoints   int `json:"done_points"`
	FailedPoints int `json:"failed_points,omitempty"`
	// Points holds the completed points in grid order.
	Points []SweepPoint `json:"points"`
	// WallMS is the sweep's wall-clock time, fan-out included.
	WallMS int64 `json:"wall_ms"`
}

// Progress reports a running job's partial state; clients polling
// GET /v1/jobs/{id} can stream it. For sweep jobs the curve fills in as
// points land (DonePoints is monotonically non-decreasing across polls);
// for resyn jobs Iterations grows as the loop measures and hardens.
type Progress struct {
	DonePoints   int `json:"done_points,omitempty"`
	TotalPoints  int `json:"total_points,omitempty"`
	FailedPoints int `json:"failed_points,omitempty"`
	// Points holds the points completed so far, in grid order.
	Points []SweepPoint `json:"points,omitempty"`
	// Iterations holds the resyn iterations completed so far, in order:
	// each carries that round's yield, area, and hardened-gate list.
	Iterations []resyn.Iteration `json:"iterations,omitempty"`
}

// Request describes one synthesis job: the source netlist plus the knobs
// cmd/tels exposes. The zero value of every field is usable; defaults are
// normalized by Normalize.
type Request struct {
	// BLIF is the source network in BLIF text form.
	BLIF string `json:"blif"`
	// Kind selects the pipeline: "synth" (default) runs
	// parse → optimize → synthesize → verify; "yield" additionally runs a
	// Monte-Carlo yield analysis of the synthesized network on the packed
	// fsim engine, with the parsed source as the golden reference; "sweep"
	// fans a grid of yield points across the worker pool; "resyn" runs
	// the defect-aware selective re-synthesis loop on the synthesized
	// network, streaming per-iteration progress.
	Kind string `json:"kind,omitempty"`
	// Yield configures the analysis stage of yield jobs, the base point
	// of sweep jobs, and the estimator of resyn jobs.
	Yield YieldSpec `json:"yield,omitempty"`
	// Sweep is the grid of sweep jobs.
	Sweep SweepSpec `json:"sweep,omitempty"`
	// Resyn configures the re-synthesis loop of resyn jobs.
	Resyn ResynSpec `json:"resyn,omitempty"`
	// Script selects the pre-synthesis optimization: "algebraic"
	// (default), "boolean", or "none".
	Script string `json:"script,omitempty"`
	// Mapper selects "tels" (default) or "one2one".
	Mapper string `json:"mapper,omitempty"`
	// Options configure the threshold synthesis core.
	Options core.Options `json:"options"`
	// Verify runs the BDD/simulation equivalence check. Defaults to on;
	// SkipVerify turns it off (named so the zero value keeps the check).
	SkipVerify bool `json:"skip_verify,omitempty"`
	// Timeout bounds the job's wall-clock run time. Zero uses the
	// manager's default.
	Timeout time.Duration `json:"timeout,omitempty"`
	// Priority orders the job within its tenant's queue: "high",
	// "normal" (default), or "low". It never affects the result, so it
	// is deliberately excluded from the request digest — a high-priority
	// submission still hits the cache entry its low-priority twin filled.
	Priority string `json:"priority,omitempty"`
}

// Normalize fills defaults and rejects malformed requests.
func (r *Request) Normalize() error {
	if r.BLIF == "" {
		return fmt.Errorf("service: empty blif")
	}
	if r.Priority == "" {
		r.Priority = PriorityNormal
	}
	switch r.Priority {
	case PriorityHigh, PriorityNormal, PriorityLow:
	default:
		return fmt.Errorf("service: unknown priority %q (want high, normal, or low)", r.Priority)
	}
	if r.Kind == "" {
		r.Kind = "synth"
	}
	switch r.Kind {
	case "synth":
	case "yield", "sweep", "resyn":
		if r.Yield.Model == "" {
			r.Yield.Model = "weight"
		}
		if r.Yield.V == 0 {
			r.Yield.V = 0.8
		}
		if r.Yield.P == 0 {
			r.Yield.P = 0.01
		}
		if _, err := r.Yield.DefectModel(); err != nil {
			return err
		}
		if r.Yield.MaxTrials < 0 || r.Yield.HalfWidth < 0 {
			return fmt.Errorf("service: negative yield bounds")
		}
		if r.Yield.MaxTrials > MaxYieldTrials {
			return fmt.Errorf("service: max_trials %d exceeds %d", r.Yield.MaxTrials, MaxYieldTrials)
		}
		if r.Kind == "sweep" {
			if err := r.normalizeSweep(); err != nil {
				return err
			}
		}
		if r.Kind == "resyn" {
			if err := r.normalizeResyn(); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("service: unknown job kind %q (want synth, yield, sweep, or resyn)", r.Kind)
	}
	if r.Script == "" {
		r.Script = "algebraic"
	}
	if err := opt.CheckScript(r.Script); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if r.Mapper == "" {
		r.Mapper = "tels"
	}
	if err := core.CheckMapper(r.Mapper); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if r.Options.Fanin == 0 {
		r.Options.Fanin = core.DefaultOptions().Fanin
	}
	// A zero-valued Go Request means the paper's default δoff = 1, as
	// the cmd/tels -doff default does; the wire refuses an explicit 0
	// (decodeSpec), which core rejects.
	if r.Options.DeltaOff == 0 {
		r.Options.DeltaOff = 1
	}
	if r.Timeout < 0 {
		return fmt.Errorf("service: negative timeout")
	}
	// Refuse options synthesis would reject (ψ out of range, a weight cap
	// below δon+δoff, ...) at submit, before they take a worker. A sweep
	// synthesizes once per grid δon, so each of those is checked too.
	if err := r.Options.Validate(); err != nil {
		return err
	}
	if r.Kind == "sweep" {
		for _, don := range r.Sweep.DeltaOns {
			o := r.Options
			o.DeltaOn = don
			if err := o.Validate(); err != nil {
				return fmt.Errorf("service: sweep delta_on %d: %w", don, err)
			}
		}
	}
	return nil
}

// normalizeSweep validates the grid axes of a sweep request; the base
// yield knobs are already normalized by the caller.
func (r *Request) normalizeSweep() error {
	s := r.Sweep
	if s.MaxInFlight < 0 {
		return fmt.Errorf("service: negative sweep in-flight budget")
	}
	for _, v := range s.Vs {
		if v < 0 {
			return fmt.Errorf("service: negative sweep v %g", v)
		}
	}
	for _, don := range s.DeltaOns {
		if don < 0 {
			return fmt.Errorf("service: negative sweep delta_on %d", don)
		}
	}
	for _, model := range s.Models {
		if _, err := (YieldSpec{Model: model, V: r.Yield.V, P: r.Yield.P}).DefectModel(); err != nil {
			return err
		}
	}
	total := max(1, len(s.Vs)) * max(1, len(s.DeltaOns)) * max(1, len(s.Models))
	if total > MaxSweepPoints {
		return fmt.Errorf("service: sweep grid has %d points (max %d)", total, MaxSweepPoints)
	}
	return nil
}

// normalizeResyn validates the loop knobs and makes the defaults
// explicit, so requests that mean the same loop share one digest.
func (r *Request) normalizeResyn() error {
	s := &r.Resyn
	if s.TopK < 0 || s.DeltaStep < 0 || s.MaxDeltaOn < 0 || s.MaxIters < 0 || s.AreaBudget < 0 {
		return fmt.Errorf("service: negative resyn knob")
	}
	if s.TargetYield < 0 || s.TargetYield > 1 {
		return fmt.Errorf("service: resyn target yield %g outside [0, 1]", s.TargetYield)
	}
	if s.TopK == 0 {
		s.TopK = 3
	}
	if s.DeltaStep == 0 {
		s.DeltaStep = 1
	}
	if s.MaxDeltaOn == 0 {
		s.MaxDeltaOn = r.Options.DeltaOn + 8
	}
	if s.MaxDeltaOn < r.Options.DeltaOn {
		return fmt.Errorf("service: resyn max δon %d below base δon %d", s.MaxDeltaOn, r.Options.DeltaOn)
	}
	if s.MaxIters == 0 {
		s.MaxIters = 10
	}
	return nil
}

// StageTimes records the per-stage wall-clock latency of one run.
type StageTimes struct {
	Parse      time.Duration `json:"parse"`
	Optimize   time.Duration `json:"optimize"`
	Synthesize time.Duration `json:"synthesize"`
	Verify     time.Duration `json:"verify"`
	// Analyze is the yield-analysis stage (zero for synth jobs).
	Analyze time.Duration `json:"analyze,omitempty"`
}

// Result is the outcome of a completed job.
type Result struct {
	// TLN is the synthesized threshold network in .tln text form.
	TLN string `json:"tln"`
	// Stats summarizes the threshold network (gates, levels, area).
	Stats core.Stats `json:"stats"`
	// SynthStats reports the TELS core's work (zero for one2one).
	SynthStats core.SynthStats `json:"synth_stats"`
	// Verified is "proved", "simulated", or "skipped".
	Verified string `json:"verified"`
	// Yield is the Monte-Carlo yield analysis (yield jobs and sweep
	// points only).
	Yield *fsim.YieldReport `json:"yield,omitempty"`
	// Sweep is the aggregated curve of a sweep job.
	Sweep *SweepResult `json:"sweep,omitempty"`
	// Resyn is the re-synthesis report of a resyn job; its TLN sibling
	// holds the hardened network.
	Resyn *resyn.Report `json:"resyn,omitempty"`
	// CacheHit marks results served from the content-addressed cache.
	CacheHit bool `json:"cache_hit"`
	// Stages holds the per-stage latencies of the run that produced the
	// result (the original run's, for cache hits).
	Stages StageTimes `json:"stages"`
}

// Job is a snapshot of one submission's state. Snapshots are values: the
// manager copies them out under its lock, so callers can read them
// without further synchronization.
type Job struct {
	ID   string `json:"id"`
	Kind string `json:"kind,omitempty"`
	// Tenant is the owning tenant (the authenticated API key's tenant,
	// or "default" when telsd runs without -api-keys).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the job's scheduling lane within its tenant.
	Priority string    `json:"priority,omitempty"`
	State    State     `json:"state"`
	Digest   string    `json:"digest"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	Error    string    `json:"error,omitempty"`
	// Progress streams a sweep job's partial curve while it runs.
	Progress *Progress `json:"progress,omitempty"`
	Result   *Result   `json:"result,omitempty"`
}
