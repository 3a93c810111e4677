package main

// layerMetric is one per-layer metric a traced run reports.
type layerMetric struct {
	name, unit string
	// replay marks the opt per-pass figures, which come from the replay
	// and are left out when it does not reproduce the script.
	replay bool
}

// perLayerMetrics lists every per-layer metric except the trace.*
// overhead figures. Names ending in _ms / _allocs are the time and heap
// allocations inside the named public calls, summed over one pass;
// README.md says which call each one times.
var perLayerMetrics = []layerMetric{
	{name: "blif.parse_ms", unit: "ms"},
	{name: "blif.parse_allocs", unit: "count"},
	{name: "blif.golden_drift", unit: "count"},

	{name: "opt.algebraic_ms", unit: "ms"},
	{name: "opt.algebraic_allocs", unit: "count"},
	{name: "opt.boolean_ms", unit: "ms"},
	{name: "opt.boolean_allocs", unit: "count"},
	{name: "opt.sweep_ms", unit: "ms", replay: true},
	{name: "opt.sweep_allocs", unit: "count", replay: true},
	{name: "opt.simplify_ms", unit: "ms", replay: true},
	{name: "opt.simplify_allocs", unit: "count", replay: true},
	{name: "opt.eliminate_ms", unit: "ms", replay: true},
	{name: "opt.eliminate_allocs", unit: "count", replay: true},
	{name: "opt.extract_ms", unit: "ms", replay: true},
	{name: "opt.extract_allocs", unit: "count", replay: true},
	{name: "opt.resub_ms", unit: "ms", replay: true},
	{name: "opt.resub_allocs", unit: "count", replay: true},
	{name: "opt.full_simplify_ms", unit: "ms", replay: true},
	{name: "opt.full_simplify_allocs", unit: "count", replay: true},
	{name: "opt.convert_ms", unit: "ms", replay: true},
	{name: "opt.convert_allocs", unit: "count", replay: true},
	{name: "opt.replay_diverged", unit: "count"},

	{name: "core.synth_ms", unit: "ms"},
	{name: "core.synth_allocs", unit: "count"},
	{name: "core.one2one_ms", unit: "ms"},
	{name: "core.one2one_allocs", unit: "count"},
	{name: "core.checks", unit: "count"},
	{name: "core.check_feasible", unit: "count"},
	{name: "core.collapses", unit: "count"},
	{name: "core.unate_splits", unit: "count"},
	{name: "core.binate_splits", unit: "count"},
	{name: "core.theorem2", unit: "count"},
	{name: "core.unsat_cache_hits", unit: "count"},
	{name: "core.races", unit: "count"},
	{name: "core.pbsat_wins", unit: "count"},
	{name: "core.budget_bailouts", unit: "count"},

	{name: "sim.prove_ms", unit: "ms"},
	{name: "sim.prove_allocs", unit: "count"},

	{name: "service.queue_ms", unit: "ms"},
	{name: "service.run_ms", unit: "ms"},
	{name: "service.http_ms", unit: "ms"},
	{name: "service.stage_parse_ms", unit: "ms"},
	{name: "service.stage_optimize_ms", unit: "ms"},
	{name: "service.stage_synthesize_ms", unit: "ms"},
	{name: "service.stage_verify_ms", unit: "ms"},
	{name: "service.stage_analyze_ms", unit: "ms"},
	{name: "service.cache_hit_frac", unit: "ratio"},
}
