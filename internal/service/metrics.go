package service

import (
	"sync/atomic"
)

// Metrics aggregates the service's expvar-style counters: cumulative job
// outcomes, cache traffic, and per-stage latency sums (nanoseconds). All
// counters are monotonic; current per-state job counts are derived from
// the job table at snapshot time by the manager.
type Metrics struct {
	jobsSubmitted atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCancelled atomic.Int64
	jobsExecuted  atomic.Int64 // runs actually started (cache misses no owner filled)

	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64

	sweepPointsPlanned atomic.Int64
	sweepPointsDone    atomic.Int64

	resynIterations    atomic.Int64
	resynGatesHardened atomic.Int64
	resynMemoHits      atomic.Int64

	// Cluster dispatch counters (snapshotted only when clustering is on).
	clusterRemoteHits    atomic.Int64 // fills answered by an owner peer
	clusterRemoteMisses  atomic.Int64 // fill attempts that missed or failed
	clusterRemotePoints  atomic.Int64 // sweep points dispatched to owner peers
	clusterSteals        atomic.Int64 // points stolen back from dead/saturated owners
	clusterHedges        atomic.Int64 // local hedges launched against stragglers
	clusterHedgesWon     atomic.Int64 // hedges where the local run finished first
	clusterHedgesLost    atomic.Int64 // hedges where the remote still won
	clusterPushes        atomic.Int64 // results replicated to their owner peer
	clusterFillsServed   atomic.Int64 // fill requests this peer answered
	clusterComputeServed atomic.Int64 // compute requests this peer accepted

	parseNS      atomic.Int64
	optimizeNS   atomic.Int64
	synthesizeNS atomic.Int64
	verifyNS     atomic.Int64
	analyzeNS    atomic.Int64
}

func (m *Metrics) addStages(st StageTimes) {
	m.parseNS.Add(int64(st.Parse))
	m.optimizeNS.Add(int64(st.Optimize))
	m.synthesizeNS.Add(int64(st.Synthesize))
	m.verifyNS.Add(int64(st.Verify))
	m.analyzeNS.Add(int64(st.Analyze))
}

// Snapshot flattens the counters into a name → value map ready for JSON
// rendering. perState and cacheLen are sampled by the manager under its
// lock so the snapshot is internally consistent for the job table.
func (m *Metrics) Snapshot(perState map[State]int, cacheLen int) map[string]int64 {
	out := map[string]int64{
		"jobs_submitted":          m.jobsSubmitted.Load(),
		"jobs_done":               m.jobsDone.Load(),
		"jobs_failed":             m.jobsFailed.Load(),
		"jobs_cancelled":          m.jobsCancelled.Load(),
		"jobs_executed":           m.jobsExecuted.Load(),
		"cache_hits":              m.cacheHits.Load(),
		"cache_misses":            m.cacheMisses.Load(),
		"cache_evictions":         m.cacheEvictions.Load(),
		"cache_entries":           int64(cacheLen),
		"sweep_points_planned":    m.sweepPointsPlanned.Load(),
		"sweep_points_done":       m.sweepPointsDone.Load(),
		"resyn_iterations":        m.resynIterations.Load(),
		"resyn_gates_hardened":    m.resynGatesHardened.Load(),
		"resyn_memo_hits":         m.resynMemoHits.Load(),
		"stage_parse_ns_sum":      m.parseNS.Load(),
		"stage_optimize_ns_sum":   m.optimizeNS.Load(),
		"stage_synthesize_ns_sum": m.synthesizeNS.Load(),
		"stage_verify_ns_sum":     m.verifyNS.Load(),
		"stage_analyze_ns_sum":    m.analyzeNS.Load(),
	}
	for _, s := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		out["jobs_state_"+string(s)] = int64(perState[s])
	}
	return out
}

// addCluster folds the dispatch counters into a snapshot; the manager
// calls it only when clustering is configured, so single-node metric
// surfaces are unchanged.
func (m *Metrics) addCluster(out map[string]int64) {
	out["cluster_remote_hits"] = m.clusterRemoteHits.Load()
	out["cluster_remote_misses"] = m.clusterRemoteMisses.Load()
	out["cluster_remote_points"] = m.clusterRemotePoints.Load()
	out["cluster_steals"] = m.clusterSteals.Load()
	out["cluster_hedges"] = m.clusterHedges.Load()
	out["cluster_hedges_won"] = m.clusterHedgesWon.Load()
	out["cluster_hedges_lost"] = m.clusterHedgesLost.Load()
	out["cluster_pushes"] = m.clusterPushes.Load()
	out["cluster_fills_served"] = m.clusterFillsServed.Load()
	out["cluster_compute_served"] = m.clusterComputeServed.Load()
}
