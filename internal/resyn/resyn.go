// Package resyn implements defect-aware selective re-synthesis: instead
// of hardening a whole network by re-running synthesis at a higher global
// δon (the paper's Fig. 12 sweep), the loop measures yield under a defect
// model, takes the first-flip blame ranking from the fault simulator, and
// re-derives weight–threshold vectors for only the top-k blamed gates at
// an elevated per-gate δon — falling back to re-decomposing a gate's cone
// through the synthesizer when no single-gate vector exists at the new
// margin. Iteration stops on a target yield, an area budget, convergence
// (no blamed gate can be improved further), or an iteration cap. The
// result is the paper's robustness at a fraction of the global-margin
// area cost, because margin is spent only where defects actually land.
package resyn

import (
	"context"
	"errors"
	"fmt"

	"tels/internal/core"
	"tels/internal/fsim"
	"tels/internal/netcore"
)

// Stop reasons reported in Report.Stop.
const (
	StopTargetYield = "target-yield"
	StopConverged   = "converged"
	StopAreaBudget  = "area-budget"
	StopMaxIters    = "max-iterations"
)

// Config parameterises one re-synthesis run.
type Config struct {
	// Model is the defect model driving yield estimation (required).
	Model fsim.DefectModel
	// Yield configures each estimate. Iteration i uses Yield.Seed+i so
	// successive rankings see fresh defect samples (the loop would
	// otherwise overfit the gates to one sample) while the whole run
	// stays deterministic.
	Yield fsim.YieldConfig
	// Synth carries the synthesis knobs (δoff, weight bound, fanin, ILP
	// budget) used when re-deriving vectors. Synth.DeltaOn is the base
	// margin assumed for gates the loop has not touched; per-gate
	// starting margins honour Synth.DeltaOnOverrides.
	Synth core.Options

	// TopK bounds the blamed gates hardened per iteration (default 3).
	TopK int
	// DeltaStep is the per-iteration δon increment for a blamed gate
	// (default 1).
	DeltaStep int
	// MaxDeltaOn caps any single gate's margin (default Synth.DeltaOn+8).
	MaxDeltaOn int
	// MaxIters caps hardening iterations; the loop always ends on a
	// measurement (default 10).
	MaxIters int
	// TargetYield stops the loop once an estimate reaches it (0 = no
	// target: run until convergence or the iteration cap).
	TargetYield float64
	// AreaBudget rejects any hardening that would push total area past
	// it (0 = unbounded).
	AreaBudget int

	// Memo caches (function, δon) → replacement fragment across
	// iterations; nil runs uncached. The service layer plugs the shared
	// content-addressed result cache in here.
	Memo Memo
	// OnIteration, when set, observes each completed iteration in order
	// (measurement plus the hardening that followed it).
	OnIteration func(Iteration)
}

func (c *Config) withDefaults() {
	if c.TopK <= 0 {
		c.TopK = 3
	}
	if c.DeltaStep <= 0 {
		c.DeltaStep = 1
	}
	if c.MaxDeltaOn <= 0 {
		c.MaxDeltaOn = c.Synth.DeltaOn + 8
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 10
	}
}

// GateChange records one gate hardened during an iteration.
type GateChange struct {
	// Gate is the hardened gate's name (preserved across the splice).
	Gate string `json:"gate"`
	// DeltaOn is the gate's margin after hardening.
	DeltaOn int `json:"delta_on"`
	// Decomposed reports that no single-gate vector existed at the new
	// margin and the cone was re-decomposed.
	Decomposed bool `json:"decomposed,omitempty"`
	// AddedGates counts extra gates the decomposition introduced.
	AddedGates int `json:"added_gates,omitempty"`
	// AreaDelta is the area change from this replacement.
	AreaDelta int `json:"area_delta"`
	// CacheHit reports the replacement came from the memo.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// Iteration is one measure-then-harden step.
type Iteration struct {
	Iter        int     `json:"iter"`
	Trials      int     `json:"trials"`
	Failures    int     `json:"failures"`
	FailureRate float64 `json:"failure_rate"`
	Yield       float64 `json:"yield"`
	Lo          float64 `json:"ci_lo"`
	Hi          float64 `json:"ci_hi"`
	Gates       int     `json:"gates"`
	Area        int     `json:"area"`
	// Critical is the head of the blame ranking this iteration acted on.
	Critical []fsim.GateImpact `json:"critical,omitempty"`
	// Hardened lists the gates changed after this measurement; empty on
	// the final iteration.
	Hardened []GateChange `json:"hardened,omitempty"`
}

// Report is the outcome of a re-synthesis run.
type Report struct {
	Model        string      `json:"model"`
	Iterations   []Iteration `json:"iterations"`
	Stop         string      `json:"stop"`
	InitialYield float64     `json:"initial_yield"`
	FinalYield   float64     `json:"final_yield"`
	InitialArea  int         `json:"initial_area"`
	FinalArea    int         `json:"final_area"`
	InitialGates int         `json:"initial_gates"`
	FinalGates   int         `json:"final_gates"`
	// HardenedGates counts gate-hardening events across all iterations.
	HardenedGates int `json:"hardened_gates"`
	// CacheHits counts replacements served from the memo.
	CacheHits int `json:"cache_hits"`
	// Network is the hardened network (not serialised; render via its
	// .tln String form).
	Network *core.Network `json:"-"`
}

// Run executes the selective re-synthesis loop on tn against the golden
// Boolean network. tn is not mutated; the hardened result is
// Report.Network.
func Run(ctx context.Context, golden *netcore.Network, tn *core.Network, cfg Config) (*Report, error) {
	if golden == nil || tn == nil {
		return nil, errors.New("resyn: nil network")
	}
	if cfg.Model == nil {
		return nil, errors.New("resyn: nil defect model")
	}
	if err := cfg.Synth.Validate(); err != nil {
		return nil, err
	}
	cfg.withDefaults()
	if cfg.MaxDeltaOn < cfg.Synth.DeltaOn {
		return nil, fmt.Errorf("resyn: max δon %d below base δon %d", cfg.MaxDeltaOn, cfg.Synth.DeltaOn)
	}

	sess, err := fsim.NewYieldSession(golden, tn, cfg.Yield)
	if err != nil {
		return nil, err
	}

	// margins tracks every gate's current δon; exhausted marks gates
	// that cannot be hardened further (at the cap, over the engine's
	// fanin limit, or blocked by the area budget at the cap).
	margins := make(map[string]int, tn.GateCount())
	for _, g := range tn.Gates {
		margins[g.Name] = cfg.Synth.DeltaOnFor(g.Name)
	}
	exhausted := make(map[string]bool)

	rep := &Report{Model: cfg.Model.Name(), Network: tn}
	cur := tn
	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ycfg := cfg.Yield
		ycfg.Seed += int64(iter)
		yr, err := sess.EstimateFor(cur, cfg.Model, ycfg)
		if err != nil {
			return nil, err
		}
		it := Iteration{
			Iter:        iter,
			Trials:      yr.Trials,
			Failures:    yr.Failures,
			FailureRate: yr.FailureRate,
			Yield:       yr.Yield,
			Lo:          yr.Lo,
			Hi:          yr.Hi,
			Gates:       cur.GateCount(),
			Area:        cur.Area(),
		}
		if n := len(yr.Critical); n > 0 {
			head := cfg.TopK + 2
			if head > n {
				head = n
			}
			it.Critical = append([]fsim.GateImpact(nil), yr.Critical[:head]...)
		}
		finish := func(stop string) *Report {
			rep.Iterations = append(rep.Iterations, it)
			if cfg.OnIteration != nil {
				cfg.OnIteration(it)
			}
			rep.Stop = stop
			rep.Network = cur
			first := rep.Iterations[0]
			last := rep.Iterations[len(rep.Iterations)-1]
			rep.InitialYield, rep.FinalYield = first.Yield, last.Yield
			rep.InitialArea, rep.FinalArea = first.Area, last.Area
			rep.InitialGates, rep.FinalGates = first.Gates, last.Gates
			return rep
		}

		if cfg.TargetYield > 0 && yr.Yield >= cfg.TargetYield {
			return finish(StopTargetYield), nil
		}
		if yr.Failures == 0 {
			// Nothing to blame: every sampled defect instance passed.
			return finish(StopConverged), nil
		}
		if iter >= cfg.MaxIters {
			return finish(StopMaxIters), nil
		}

		// Harden the top-k improvable blamed gates.
		budgetBlocked := false
		picked := 0
		for _, gi := range yr.Critical {
			if picked >= cfg.TopK {
				break
			}
			if exhausted[gi.Gate] || margins[gi.Gate] >= cfg.MaxDeltaOn {
				continue
			}
			g := cur.Gate(gi.Gate)
			if g == nil {
				continue
			}
			newDon := margins[gi.Gate] + cfg.DeltaStep
			if newDon > cfg.MaxDeltaOn {
				newDon = cfg.MaxDeltaOn
			}
			repl, err := deriveReplacement(g, newDon, cfg.Synth, cfg.Memo)
			if err != nil {
				// Unhardenable (e.g. fanin over the engine limit): skip
				// it for good rather than abort the run.
				exhausted[gi.Gate] = true
				continue
			}
			next, addedNames, err := splice(cur, gi.Gate, repl)
			if err != nil {
				return nil, err
			}
			change := GateChange{
				Gate:       gi.Gate,
				DeltaOn:    newDon,
				Decomposed: repl.decomposed,
				AddedGates: len(addedNames) - 1,
				AreaDelta:  next.Area() - cur.Area(),
				CacheHit:   repl.cacheHit,
			}
			if cfg.AreaBudget > 0 && next.Area() > cfg.AreaBudget {
				budgetBlocked = true
				continue
			}
			cur = next
			for _, name := range addedNames {
				margins[name] = newDon
			}
			it.Hardened = append(it.Hardened, change)
			rep.HardenedGates++
			if repl.cacheHit {
				rep.CacheHits++
			}
			picked++
		}

		if len(it.Hardened) == 0 {
			if budgetBlocked {
				return finish(StopAreaBudget), nil
			}
			return finish(StopConverged), nil
		}
		if err := sess.VerifyClean(cur); err != nil {
			return nil, fmt.Errorf("resyn: iteration %d broke functionality: %w", iter, err)
		}
		rep.Iterations = append(rep.Iterations, it)
		if cfg.OnIteration != nil {
			cfg.OnIteration(it)
		}
	}
}
