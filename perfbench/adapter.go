package main

// This file is the benchmark's only contact with the program under test:
// every call into tels/internal/... lives here, so a change to a public
// function's signature (or the retirement of a layer) touches one file.
// The rest of the benchmark sees the aliases below and the functions of
// this file.

import (
	"context"
	"crypto/sha256"
	"fmt"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/mcnc"
	"tels/internal/netcore"
	"tels/internal/network"
	"tels/internal/opt"
	"tels/internal/service"
	"tels/internal/sim"
)

type (
	boolNet   = *network.Network
	threshNet = *core.Network
	synthOpts = core.Options
)

// benchmarkNames lists the recreated MCNC benchmarks, sorted by name.
func benchmarkNames() []string { return mcnc.Names() }

// benchmarkBLIF renders a benchmark as BLIF text: the input every job
// starts from.
func benchmarkBLIF(name string) (string, error) {
	bm, ok := mcnc.Get(name)
	if !ok {
		return "", fmt.Errorf("unknown benchmark %q", name)
	}
	return blif.WriteString(bm.Build())
}

// defaultOptions is the paper's ψ=3, δon=0, δoff=1 configuration.
func defaultOptions() synthOpts { return core.DefaultOptions() }

// parseBLIF times blif.ParseString.
func parseBLIF(tr *tracer, text string) (nw boolNet, err error) {
	tr.span("blif.parse", func() { nw, err = blif.ParseString(text) })
	return nw, err
}

// runScript runs the named optimization script ("none" clones, as the
// service and the golden gate do) and times opt.Algebraic / opt.Boolean.
func runScript(tr *tracer, script string, nw boolNet) (out boolNet) {
	switch script {
	case "algebraic":
		tr.span("opt.algebraic", func() { out = opt.Algebraic(nw) })
	case "boolean":
		tr.span("opt.boolean", func() { out = opt.Boolean(nw) })
	default:
		out = nw.Clone()
	}
	return out
}

// algebraic factors a network outside any timed region (wide's set-up).
func algebraic(nw boolNet) boolNet { return opt.Algebraic(nw) }

// mapNetwork runs the named mapper and times core.Synthesize /
// core.OneToOne. Traced calls also record the process-wide threshold-check
// counter deltas (both mappers run threshold checks) and, for
// core.Synthesize, the SynthStats.
func mapNetwork(tr *tracer, mapper string, nw boolNet, o synthOpts) (tn threshNet, err error) {
	var before core.CheckCounters
	if tr != nil {
		before = core.SnapshotCheckCounters()
	}
	if mapper == "one2one" {
		tr.span("core.one2one", func() { tn, err = core.OneToOne(nw, o) })
	} else {
		var st core.SynthStats
		tr.span("core.synth", func() { tn, st, err = core.Synthesize(nw, o) })
		tr.addSynthStats(st)
	}
	if tr != nil {
		after := core.SnapshotCheckCounters()
		tr.add("core.unsat_cache_hits", float64(after.UnsatCacheHits-before.UnsatCacheHits))
		tr.add("core.races", float64(after.Races-before.Races))
		tr.add("core.pbsat_wins", float64(after.PbsatWins-before.PbsatWins))
		tr.add("core.budget_bailouts", float64(after.BudgetBailouts-before.BudgetBailouts))
	}
	return tn, err
}

// addSynthStats adds one synthesis run's work counts to the trace.
func (t *tracer) addSynthStats(st core.SynthStats) {
	t.add("core.checks", float64(st.ILPCalls))
	t.add("core.check_feasible", float64(st.ILPFeasible))
	t.add("core.collapses", float64(st.Collapses))
	t.add("core.unate_splits", float64(st.UnateSplits))
	t.add("core.binate_splits", float64(st.BinateSplits))
	t.add("core.theorem2", float64(st.Theorem2))
}

// prove times sim.Prove of the threshold network against its source.
func prove(tr *tracer, src boolNet, tn threshNet) (err error) {
	tr.span("sim.prove", func() { _, err = sim.Prove(src, tn, 1) })
	return err
}

// resetUnsatCache makes the next job's threshold checks cold.
func resetUnsatCache() { core.ResetUnsatCache() }

// tlnText is the .tln text a job delivers.
func tlnText(tn threshNet) string { return tn.String() }

// parseTLN parses .tln text returned by the daemon.
func parseTLN(text string) (threshNet, error) { return core.ParseTLNString(text) }

// quality is a threshold network's Table I figures.
type quality struct{ gates, levels, area int }

func qualityOf(tn threshNet) quality {
	st := tn.Stats()
	return quality{st.Gates, st.Levels, st.Area}
}

// goldenText is the form the golden gate hashes: a stats header, then the
// .tln text.
func goldenText(q quality, tln string) string {
	return fmt.Sprintf("# gates=%d levels=%d area=%d\n%s", q.gates, q.levels, q.area, tln)
}

// fingerprint hashes a Boolean network in creation order — names, kinds,
// fanins, covers and outputs — so two script runs compare byte for byte
// on everything the mappers read.
func fingerprint(nw boolNet) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", nw.Name)
	for _, n := range nw.Nodes() {
		fmt.Fprintf(h, "%s %d", n.Name, n.Kind)
		for _, f := range n.Fanins {
			fmt.Fprintf(h, " %s", f.Name)
		}
		fmt.Fprintf(h, " %v\n", n.Cover)
	}
	for _, o := range nw.Outputs {
		fmt.Fprintf(h, "out %s\n", o.Name)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// replayScript re-runs opt.Algebraic / opt.Boolean pass by pass, timing
// each public pass function under "opt.<pass>"; the Clone and
// netcore/network bridges count as "opt.convert". The sequences must
// mirror internal/opt/script.go exactly; the caller checks the result's
// fingerprint against the script's own output and drops the per-pass
// figures if they differ.
func replayScript(tr *tracer, script string, nw boolNet) boolNet {
	var out boolNet
	var cw *netcore.Network
	convert := func(f func()) { tr.span("opt.convert", f) }
	toCore := func() { convert(func() { cw = netcore.FromNetwork(out) }) }
	toNet := func() { convert(func() { out = cw.ToNetwork() }) }
	sweep := func() { tr.span("opt.sweep", func() { opt.SweepCore(cw) }) }
	simplify := func() { tr.span("opt.simplify", func() { opt.SimplifyNodesCore(cw) }) }
	eliminate := func(th int) { tr.span("opt.eliminate", func() { opt.EliminateCore(cw, th) }) }
	extract := func() { tr.span("opt.extract", func() { opt.Extract(out) }) }
	resub := func() { tr.span("opt.resub", func() { opt.ResubCore(cw) }) }
	fullSimplify := func() { tr.span("opt.full_simplify", func() { opt.SimplifyFull(out) }) }

	convert(func() { out = nw.Clone() })
	toCore()
	switch script {
	case "algebraic":
		sweep()
		simplify()
		eliminate(0)
		simplify()
		toNet()
		extract()
		toCore()
		resub()
		sweep()
		simplify()
		sweep()
	case "boolean":
		sweep()
		simplify()
		eliminate(2)
		simplify()
		toNet()
		extract()
		toCore()
		simplify()
		eliminate(0)
		simplify()
		toNet()
		extract()
		toCore()
		resub()
		toNet()
		fullSimplify()
		toCore()
		sweep()
		eliminate(25)
		simplify()
		sweep()
	default:
		panic("replayScript: no script " + script)
	}
	toNet()
	return out
}

// daemonClient talks to one telsd over its v1 HTTP API.
type daemonClient struct{ c *service.Client }

func newDaemonClient(baseURL string) daemonClient {
	return daemonClient{&service.Client{BaseURL: baseURL}}
}

// daemonRequest is one submission: a synth job, or a yield job whose
// Monte-Carlo analysis runs a fixed number of trials.
type daemonRequest struct {
	blif, script, mapper string
	yieldTrials          int
}

// submitAndWait submits the job and follows its event stream (not the
// polling Wait, whose backoff would quantize latency) to the terminal
// snapshot.
func (d daemonClient) submitAndWait(ctx context.Context, r daemonRequest) (service.Job, error) {
	spec := service.SynthSpec{BLIF: r.blif, Script: r.script, Mapper: r.mapper}
	var job service.Job
	var err error
	if r.yieldTrials > 0 {
		// A half-width no estimate reaches keeps early stopping off, so
		// every yield job draws exactly yieldTrials defect instances.
		job, err = d.c.SubmitYield(ctx, service.YieldJobSpec{SynthSpec: spec, Yield: service.YieldSpec{
			Model: "weight", V: 0.8, MaxTrials: r.yieldTrials, HalfWidth: 1e-9, Seed: 1,
		}})
	} else {
		job, err = d.c.SubmitSynth(ctx, spec)
	}
	if err != nil {
		return job, fmt.Errorf("submit: %w", err)
	}
	return d.c.Watch(ctx, job.ID, nil)
}

// metrics reads the daemon's /v1/metrics counters.
func (d daemonClient) metrics(ctx context.Context) (map[string]int64, error) {
	return d.c.Metrics(ctx)
}

// jobOutcome is what the benchmark reads from a terminal job snapshot.
type jobOutcome struct {
	done               bool
	errText            string
	tln                string
	q                  quality
	st                 core.SynthStats
	cacheHit, hasYield bool
	queueMS, serverMS  float64
	stageMS            map[string]float64
}

func outcomeOf(j service.Job) jobOutcome {
	o := jobOutcome{done: j.State == service.StateDone, errText: j.Error}
	o.queueMS = ms(j.Started.Sub(j.Created))
	o.serverMS = ms(j.Finished.Sub(j.Created))
	if r := j.Result; r != nil {
		o.tln = r.TLN
		o.q = quality{r.Stats.Gates, r.Stats.Levels, r.Stats.Area}
		o.st = r.SynthStats
		o.cacheHit = r.CacheHit
		o.hasYield = r.Yield != nil
		o.stageMS = map[string]float64{
			"parse":      ms(r.Stages.Parse),
			"optimize":   ms(r.Stages.Optimize),
			"synthesize": ms(r.Stages.Synthesize),
			"verify":     ms(r.Stages.Verify),
			"analyze":    ms(r.Stages.Analyze),
		}
	}
	if o.done && o.tln == "" {
		o.done, o.errText = false, "done without a .tln"
	}
	return o
}
