package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"tels/internal/blif"
	"tels/internal/mcnc"
	"tels/internal/service"
)

// This file implements `telsbench tenants`: the admission-layer
// experiment behind BENCH_tenants.json. Two tenants compete for one
// small worker pool — "heavy" floods a large backlog, "light" submits a
// small interactive batch right behind it — and the experiment measures
// each tenant's queue wait (submit → dispatch) under two arms:
//
//   solo  light runs alone: the no-contention baseline
//   fair  heavy's flood first: weighted-fair admission, per-tenant
//         queues stride-scheduled by weight
//
// Like the cluster experiment, the measurement is synthetic: every job
// carries a fixed ExecDelay sleep standing in for per-job compute, so
// the arms characterize the admission queue, not the synthesizer. The
// headline figure is light's p95 wait, which stays near the solo
// baseline no matter how deep heavy's flood is. (A single shared FIFO
// queue, since removed, let it grow with heavy's whole backlog; see
// BENCH_tenants.json.)

// tenantArm is one arm's measurement.
type tenantArm struct {
	Arm         string  `json:"arm"`
	HeavyJobs   int     `json:"heavy_jobs"`
	LightJobs   int     `json:"light_jobs"`
	WallMS      int64   `json:"wall_ms"`
	LightP50MS  float64 `json:"light_p50_ms"`
	LightP95MS  float64 `json:"light_p95_ms"`
	HeavyP50MS  float64 `json:"heavy_p50_ms"`
	HeavyP95MS  float64 `json:"heavy_p95_ms"`
	LightVsSolo float64 `json:"light_p95_vs_solo"`
	LightMaxMS  float64 `json:"light_max_ms"`
}

// waitQuantiles returns the p50/p95/max queue wait of the jobs in ms.
func waitQuantiles(jobs []service.Job) (p50, p95, max float64) {
	if len(jobs) == 0 {
		return 0, 0, 0
	}
	waits := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		waits = append(waits, float64(j.Started.Sub(j.Created).Microseconds())/1000)
	}
	sort.Float64s(waits)
	return waits[len(waits)/2], waits[(len(waits)*95)/100], waits[len(waits)-1]
}

// runTenantArm floods heavy's backlog, submits light's batch behind it,
// waits for light, and measures both tenants' queue waits.
func runTenantArm(arm string, src string, heavyJobs, lightJobs int, delay time.Duration) (tenantArm, error) {
	out := tenantArm{Arm: arm, HeavyJobs: heavyJobs, LightJobs: lightJobs}
	m := service.New(service.Config{
		Workers:    2,
		QueueDepth: heavyJobs + lightJobs + 8,
		ExecDelay:  delay,
	})
	defer m.Close()

	req := func(seed int64) service.Request {
		r := service.Request{BLIF: src}
		r.Options.Seed = seed // distinct digests: no cache coalescing
		return r
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	start := time.Now()
	var heavyIDs, lightIDs []string
	for i := 0; i < heavyJobs; i++ {
		j, err := m.SubmitAs(service.Caller{Tenant: "heavy"}, req(int64(1000+i)))
		if err != nil {
			return out, err
		}
		heavyIDs = append(heavyIDs, j.ID)
	}
	for i := 0; i < lightJobs; i++ {
		j, err := m.SubmitAs(service.Caller{Tenant: "light"}, req(int64(900000+i)))
		if err != nil {
			return out, err
		}
		lightIDs = append(lightIDs, j.ID)
	}
	collect := func(ids []string) ([]service.Job, error) {
		jobs := make([]service.Job, 0, len(ids))
		for _, id := range ids {
			j, err := m.Wait(ctx, id)
			if err != nil {
				return nil, err
			}
			if j.State != service.StateDone {
				return nil, fmt.Errorf("tenants arm %s: job %s ended %s (%s)", arm, id, j.State, j.Error)
			}
			jobs = append(jobs, j)
		}
		return jobs, nil
	}
	light, err := collect(lightIDs)
	if err != nil {
		return out, err
	}
	heavy, err := collect(heavyIDs)
	if err != nil {
		return out, err
	}
	out.WallMS = time.Since(start).Milliseconds()
	out.LightP50MS, out.LightP95MS, out.LightMaxMS = waitQuantiles(light)
	out.HeavyP50MS, out.HeavyP95MS, _ = waitQuantiles(heavy)
	return out, nil
}

// tenantsBench runs the solo and fair arms and renders the comparison.
func tenantsBench(quick, jsonOut bool, emit emitFn) error {
	const name = "cm152a"
	delay := 10 * time.Millisecond
	heavyJobs, lightJobs := 300, 15
	if quick {
		delay = 5 * time.Millisecond
		heavyJobs, lightJobs = 120, 10
	}
	src, err := blif.WriteString(mcnc.Build(name))
	if err != nil {
		return err
	}

	solo, err := runTenantArm("solo", src, 0, lightJobs, delay)
	if err != nil {
		return err
	}
	fair, err := runTenantArm("fair", src, heavyJobs, lightJobs, delay)
	if err != nil {
		return err
	}
	solo.LightVsSolo = 1
	if solo.LightP95MS > 0 {
		fair.LightVsSolo = fair.LightP95MS / solo.LightP95MS
	}
	arms := []tenantArm{solo, fair}

	if jsonOut {
		return writeJSON(map[string]any{
			"experiment": "tenants", "mode": "synthetic",
			"benchmark": name, "exec_delay_ms": delay.Milliseconds(),
			"workers": 2, "heavy_jobs": heavyJobs, "light_jobs": lightJobs,
			"arms": arms,
		})
	}
	fmt.Printf("Multi-tenant admission — %s, %d heavy + %d light jobs, %s/job, 2 workers\n",
		name, heavyJobs, lightJobs, delay)
	fmt.Println("(synthetic: per-job compute is a fixed sleep; the measurement")
	fmt.Println(" characterizes the admission queue, not the synthesizer)")
	fmt.Println()
	fmt.Printf("%5s | %8s | light wait p50/p95/max ms | heavy p50/p95 ms | %9s\n",
		"arm", "wall ms", "p95 vs solo")
	fmt.Println("--------------------------------------------------------------------------")
	for _, a := range arms {
		fmt.Printf("%5s | %8d | %8.1f %8.1f %8.1f | %8.1f %8.1f | %10.1fx\n",
			a.Arm, a.WallMS, a.LightP50MS, a.LightP95MS, a.LightMaxMS,
			a.HeavyP50MS, a.HeavyP95MS, a.LightVsSolo)
	}
	fmt.Println("\nfair admission keeps the light tenant near its solo latency")
	return emit("tenants.csv", func(w io.Writer) error {
		if _, err := fmt.Fprintln(w, "arm,wall_ms,light_p50_ms,light_p95_ms,light_max_ms,heavy_p50_ms,heavy_p95_ms,light_p95_vs_solo"); err != nil {
			return err
		}
		for _, a := range arms {
			if _, err := fmt.Fprintf(w, "%s,%d,%g,%g,%g,%g,%g,%g\n",
				a.Arm, a.WallMS, a.LightP50MS, a.LightP95MS, a.LightMaxMS,
				a.HeavyP50MS, a.HeavyP95MS, a.LightVsSolo); err != nil {
				return err
			}
		}
		return nil
	})
}
