// Command telsbench regenerates the paper's experimental results on the
// recreated MCNC benchmarks:
//
//	telsbench table1          Table I   — gates/levels/area, one-to-one vs TELS (ψ=3)
//	telsbench fig10           Fig. 10   — gate count vs fanin restriction on comp
//	telsbench fig11           Fig. 11   — failure rate vs weight variation, per δon
//	telsbench fig12           Fig. 12   — failure rate and area vs δon at v=0.8
//	telsbench timing          §VI-A     — factoring vs synthesis time split
//	telsbench ablation        collapse / Theorem-2 contribution (extension)
//	telsbench heuristics      splitting-strategy comparison (extension)
//	telsbench unate           §VI-B unate/threshold census
//	telsbench weights         synthesis under RTD weight-ratio bounds (extension)
//	telsbench seeds           tie-break-seed robustness (extension)
//	telsbench sweep           Fig. 11 grid through the telsd sweep job kind,
//	                          fanned vs sequential wall-clock comparison
//	telsbench resyn           selective re-synthesis (internal/resyn) vs the
//	                          paper's global-δon hardening: area at equal yield
//	telsbench store           durable-store microbench: WAL append throughput
//	                          and cold-start recovery time vs journal size
//	telsbench cluster         sweep fan-out scaling across 1/2/4 in-process
//	                          telsd peers (synthetic per-point delay)
//	telsbench tenants         solo vs fair admission latency of a light
//	                          tenant beside a flooding one
//	telsbench thresh          threshold check, cold vs deployed (verdict memo)
//	                          wall-clock on the widest MCNC nodes
//	telsbench all             everything above (except sweep, resyn, store,
//	                          cluster, tenants, thresh)
//
// The -quick flag shrinks the Monte-Carlo grids and skips the largest
// benchmark (i10) for a fast smoke run. The -json flag replaces the
// rendered tables of table1, fig10, fig11, fig12, resyn, store, cluster,
// tenants, and thresh with a machine-readable JSON document on stdout
// (BENCH_fig11.json, BENCH_resyn.json, BENCH_store.json, and
// BENCH_cluster.json in the repo root are such
// baselines, regenerated with `telsbench -quick -json fig11` and
// friends).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tels/internal/blif"
	"tels/internal/cli"
	"tels/internal/core"
	"tels/internal/enum"
	"tels/internal/expt"
	"tels/internal/mcnc"
	"tels/internal/resyn"
	"tels/internal/service"
)

func main() {
	var (
		fanin   = flag.Int("fanin", 3, "fanin restriction ψ (Table I uses 3)")
		quick   = flag.Bool("quick", false, "smaller grids; skip i10")
		trials  = flag.Int("trials", 10, "Monte-Carlo disturbances per circuit (fig11/fig12)")
		seed    = flag.Int64("seed", 1, "experiment RNG seed")
		csvDir  = flag.String("csv", "", "also write plottable CSV files into this directory")
		jsonOut = flag.Bool("json", false, "emit JSON instead of tables (table1, fig10, fig11, fig12, resyn, store, cluster, tenants, thresh)")
		quiet   = flag.Bool("q", false, "suppress informational diagnostics")
	)
	flag.Parse()
	t := cli.New("telsbench")
	t.Quiet = *quiet
	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	t.Fail(run(cmd, *fanin, *quick, *trials, *seed, *csvDir, *jsonOut))
}

// writeJSON renders one experiment's machine-readable document.
func writeJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func run(cmd string, fanin int, quick bool, trials int, seed int64, csvDir string, jsonOut bool) error {
	o := core.Options{Fanin: fanin, DeltaOn: 0, DeltaOff: 1, Seed: seed}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	emit := func(name string, write func(io.Writer) error) error {
		if csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(csvDir, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	switch cmd {
	case "table1", "fig10", "fig11", "fig12", "resyn", "store", "cluster", "tenants", "thresh":
	default:
		if jsonOut {
			return fmt.Errorf("-json supports table1, fig10, fig11, fig12, resyn, store, cluster, tenants, and thresh, not %q", cmd)
		}
	}
	switch cmd {
	case "table1":
		return table1(o, quick, jsonOut, emit)
	case "fig10":
		return fig10(o, quick, jsonOut, emit)
	case "fig11":
		return fig11(trials, seed, quick, jsonOut, emit)
	case "fig12":
		return fig12(trials, seed, quick, jsonOut, emit)
	case "timing":
		return timing(o, quick)
	case "ablation":
		return ablation(o, quick)
	case "heuristics":
		return heuristics(o, quick)
	case "unate":
		return unateCensus()
	case "weights":
		return weightSweep(o)
	case "seeds":
		return seedSweep(o, quick)
	case "sweep":
		return serviceSweep(quick, seed)
	case "resyn":
		return resynBench(quick, jsonOut, seed, emit)
	case "store":
		return storeBench(quick, jsonOut, emit)
	case "cluster":
		return clusterBench(quick, jsonOut, seed, emit)
	case "tenants":
		return tenantsBench(quick, jsonOut, emit)
	case "thresh":
		return threshBench(quick, jsonOut, emit)
	case "all":
		for _, c := range []func() error{
			func() error { return table1(o, quick, false, emit) },
			func() error { return fig10(o, quick, false, emit) },
			func() error { return fig11(trials, seed, quick, false, emit) },
			func() error { return fig12(trials, seed, quick, false, emit) },
			func() error { return timing(o, quick) },
			func() error { return ablation(o, quick) },
			func() error { return heuristics(o, quick) },
			func() error { return weightSweep(o) },
			func() error { return seedSweep(o, quick) },
			unateCensus,
		} {
			if err := c(); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q (want table1, fig10, fig11, fig12, timing, ablation, heuristics, weights, seeds, unate, sweep, resyn, store, cluster, tenants, thresh, or all)", cmd)
	}
}

// emitFn writes one experiment's CSV artifact (no-op when -csv is unset).
type emitFn func(name string, write func(io.Writer) error) error

// unateCensus re-derives the §VI-B numbers behind the Fig. 10 analysis:
// how many positive-unate permutation classes of each arity are threshold
// functions.
func unateCensus() error {
	fmt.Println("Unate census — threshold fraction of positive-unate classes (§VI-B)")
	fmt.Printf("%5s | %8s | %10s\n", "vars", "classes", "threshold")
	fmt.Println("---------------------------")
	for _, r := range enum.Census(5) {
		fmt.Printf("%5d | %8d | %10d\n", r.Vars, r.Classes, r.Threshold)
	}
	fmt.Println("(paper §VI-B: all of ≤3 vars, 17/20 at 4 vars, 92/168 at 5 vars;")
	fmt.Println(" the 5-var threshold count 92 matches; see EXPERIMENTS.md on 180 vs 168)")
	return nil
}

func weightSweep(o core.Options) error {
	// Weighted gates only appear once the fanin restriction allows them;
	// sweep at ψ = 6 where the ILP starts assigning multi-unit weights.
	o.Fanin = 6
	points, err := expt.WeightSweep("cordic", []int{0, 4, 3, 2, 1}, o)
	if err != nil {
		return err
	}
	fmt.Print(expt.RenderWeightSweep("cordic", points))
	return nil
}

func seedSweep(o core.Options, quick bool) error {
	names := []string{"cm152a", "cm85a", "pm1", "comp", "term1"}
	if quick {
		names = names[:3]
	}
	rows := make([]expt.SeedStats, 0, len(names))
	for _, name := range names {
		r, err := expt.SeedSweep(name, 9, o)
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}
	fmt.Print(expt.RenderSeedSweep(rows))
	return nil
}

func heuristics(o core.Options, quick bool) error {
	names := tableSet(quick)
	if quick {
		names = names[:5]
	}
	rows, err := expt.Heuristics(names, o)
	if err != nil {
		return err
	}
	fmt.Print(expt.RenderHeuristics(rows))
	return nil
}

func ablation(o core.Options, quick bool) error {
	names := tableSet(quick)
	if quick {
		names = names[:5]
	}
	rows, err := expt.Ablation(names, o)
	if err != nil {
		return err
	}
	fmt.Print(expt.RenderAblation(rows))
	return nil
}

func tableSet(quick bool) []string {
	names := mcnc.TableISet()
	if !quick {
		return names
	}
	var out []string
	for _, n := range names {
		if n != "i10" {
			out = append(out, n)
		}
	}
	return out
}

func table1(o core.Options, quick, jsonOut bool, emit emitFn) error {
	if !jsonOut {
		fmt.Printf("Table I — threshold synthesis results with fanin restriction %d\n\n", o.Fanin)
	}
	rows, err := expt.TableI(tableSet(quick), o)
	if err != nil {
		return err
	}
	if jsonOut {
		if err := writeJSON(map[string]any{
			"experiment": "table1", "fanin": o.Fanin, "rows": rows,
		}); err != nil {
			return err
		}
	} else {
		fmt.Print(expt.RenderTableI(rows))
	}
	return emit("table1.csv", func(w io.Writer) error { return expt.WriteTableICSV(w, rows) })
}

func fig10(o core.Options, quick, jsonOut bool, emit emitFn) error {
	fanins := []int{3, 4, 5, 6, 7, 8}
	if quick {
		fanins = []int{3, 4, 5}
	}
	points, err := expt.Fig10("comp", fanins, o)
	if err != nil {
		return err
	}
	if jsonOut {
		if err := writeJSON(map[string]any{
			"experiment": "fig10", "benchmark": "comp", "points": points,
		}); err != nil {
			return err
		}
	} else {
		fmt.Print(expt.RenderFig10("comp", points))
	}
	return emit("fig10.csv", func(w io.Writer) error { return expt.WriteFig10CSV(w, points) })
}

func defectGrid(quick bool) (vs []float64, deltaOns []int) {
	deltaOns = []int{0, 1, 2, 3}
	if quick {
		return []float64{0, 0.8, 1.6, 2.4}, deltaOns
	}
	for v := 0.0; v <= 3.01; v += 0.25 {
		vs = append(vs, v)
	}
	return vs, deltaOns
}

func fig11(trials int, seed int64, quick, jsonOut bool, emit emitFn) error {
	vs, deltaOns := defectGrid(quick)
	names := expt.DefectSet()
	if quick {
		names = names[:6]
	}
	curves, err := expt.Fig11(names, vs, deltaOns, trials, seed)
	if err != nil {
		return err
	}
	if jsonOut {
		if err := writeJSON(map[string]any{
			"experiment": "fig11", "benchmarks": names,
			"trials": trials, "seed": seed, "curves": curves,
		}); err != nil {
			return err
		}
	} else {
		fmt.Print(expt.RenderFig11(curves))
	}
	return emit("fig11.csv", func(w io.Writer) error { return expt.WriteFig11CSV(w, curves) })
}

func fig12(trials int, seed int64, quick, jsonOut bool, emit emitFn) error {
	_, deltaOns := defectGrid(quick)
	names := expt.DefectSet()
	if quick {
		names = names[:6]
	}
	points, err := expt.Fig12(names, 0.8, deltaOns, trials, seed)
	if err != nil {
		return err
	}
	if jsonOut {
		if err := writeJSON(map[string]any{
			"experiment": "fig12", "benchmarks": names, "v": 0.8,
			"trials": trials, "seed": seed, "points": points,
		}); err != nil {
			return err
		}
	} else {
		fmt.Print(expt.RenderFig12(0.8, points))
	}
	return emit("fig12.csv", func(w io.Writer) error { return expt.WriteFig12CSV(w, 0.8, points) })
}

func timing(o core.Options, quick bool) error {
	rows, err := expt.Timing(tableSet(quick), o)
	if err != nil {
		return err
	}
	fmt.Print(expt.RenderTiming(rows))
	return nil
}

// serviceSweep reproduces one Fig. 11 curve (failure rate vs weight
// variation at δon=2) through the service's sweep job kind and compares
// its wall-clock against the same six points run as sequential standalone
// yield jobs. The sweep synthesizes the δon prefix once and fans the
// points across the worker pool; the sequential loop pays the full
// parse → synthesize → verify → estimate pipeline per point.
func serviceSweep(quick bool, seed int64) error {
	const name = "cm85a"
	const deltaOn = 2
	vs := []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}
	maxTrials := 4000
	if quick {
		vs = []float64{1.0, 2.0, 3.0} // 3-point smoke grid
		maxTrials = 400
	}
	src, err := blif.WriteString(mcnc.Build(name))
	if err != nil {
		return err
	}
	yield := service.YieldSpec{
		Model:     "weight",
		MaxTrials: maxTrials,
		HalfWidth: 0.001, // effectively disable early stop: every point pays MaxTrials
		Seed:      seed,
	}
	base := service.Request{BLIF: src, Yield: yield}
	base.Options.DeltaOn = deltaOn

	// Sequential baseline: six standalone yield jobs, each awaited before
	// the next is submitted. A fresh manager per arm keeps the caches
	// independent.
	seqMgr := service.New(service.Config{})
	defer seqMgr.Close()
	seqStart := time.Now()
	for _, v := range vs {
		req := base
		req.Kind = "yield"
		req.Yield.V = v
		job, err := seqMgr.Submit(req)
		if err != nil {
			return err
		}
		done, err := seqMgr.Wait(context.Background(), job.ID)
		if err != nil {
			return err
		}
		if done.State != service.StateDone {
			return fmt.Errorf("sequential point v=%g: %s (%s)", v, done.State, done.Error)
		}
	}
	seq := time.Since(seqStart)

	fanMgr := service.New(service.Config{})
	defer fanMgr.Close()
	req := base
	req.Kind = "sweep"
	req.Sweep = service.SweepSpec{Vs: vs}
	fanStart := time.Now()
	job, err := fanMgr.Submit(req)
	if err != nil {
		return err
	}
	done, err := fanMgr.Wait(context.Background(), job.ID)
	if err != nil {
		return err
	}
	fan := time.Since(fanStart)
	if done.State != service.StateDone {
		return fmt.Errorf("sweep: %s (%s)", done.State, done.Error)
	}
	sr := done.Result.Sweep

	fmt.Printf("Fig. 11 via telsd sweep — %s, δon=%d, %d trials/point, %d workers\n\n",
		name, deltaOn, maxTrials, fanMgr.Workers())
	fmt.Printf("%6s | %12s\n", "v", "failure rate")
	fmt.Println("---------------------")
	for _, p := range sr.Points {
		fmt.Printf("%6.2f | %12.4f\n", p.V, p.FailureRate)
	}
	fmt.Printf("\nsequential yield jobs: %8.1f ms\n", float64(seq.Microseconds())/1000)
	fmt.Printf("sweep job (fanned):    %8.1f ms\n", float64(fan.Microseconds())/1000)
	fmt.Printf("speedup:               %8.2fx\n", float64(seq)/float64(fan))
	return nil
}

// resynRow is one benchmark's selective-vs-global hardening comparison.
type resynRow struct {
	Benchmark     string  `json:"benchmark"`
	BaseYield     float64 `json:"base_yield"`
	BaseArea      int     `json:"base_area"`
	GlobalYield   float64 `json:"global_yield"`
	GlobalArea    int     `json:"global_area"`
	SelectiveYld  float64 `json:"selective_yield"`
	SelectiveArea int     `json:"selective_area"`
	Iterations    int     `json:"iterations"`
	Hardened      int     `json:"hardened_gates"`
	Stop          string  `json:"stop"`
	AreaSaved     int     `json:"area_saved"`
	Win           bool    `json:"win"`
}

// resynBench compares defect-aware selective re-synthesis against the
// paper's Fig. 12 recipe of hardening every gate by raising the global
// δon. Per benchmark: measure yield of the δon=1 network and of the
// globally hardened δon=2 network under weight variation v=1.2, then run
// the resyn loop from the δon=1 network with the global network's yield
// (its lower confidence bound — equal yield up to the Monte-Carlo
// resolution) as the target, capping per-gate hardening at the global
// arm's δon=2 so the loop spreads margin to blamed gates rather than
// over-hardening a few. A win is reaching that target with strictly
// smaller total area; it happens when logical masking concentrates
// first-flip blame in a subset of the gates. All three arms run as jobs
// through one service manager, so the resyn arm's baseline synthesis
// and fragment memo exercise the shared content-addressed cache.
// (δon=0 is no use as a baseline here: a minimal-area vector holds some
// on-set minterm at exactly Σwx = T, so any negative weight perturbation
// flips it and the base yield is pinned near zero at every v.)
func resynBench(quick, jsonOut bool, seed int64, emit emitFn) error {
	names := []string{"cm152a", "z4ml", "mux4", "dec4", "misex1", "cm85a"}
	maxTrials := 2000
	maxIters := 12
	if quick {
		maxTrials = 600
	}
	const v = 1.2
	m := service.New(service.Config{})
	defer m.Close()
	runJob := func(req service.Request) (*service.Result, error) {
		job, err := m.Submit(req)
		if err != nil {
			return nil, err
		}
		done, err := m.Wait(context.Background(), job.ID)
		if err != nil {
			return nil, err
		}
		if done.State != service.StateDone {
			return nil, fmt.Errorf("%s job on %s: %s (%s)", req.Kind, req.BLIF[:20], done.State, done.Error)
		}
		return done.Result, nil
	}
	yield := service.YieldSpec{
		Model:     "weight",
		V:         v,
		MaxTrials: maxTrials,
		HalfWidth: 0.001, // effectively disable early stop
		Seed:      seed,
	}
	rows := make([]resynRow, 0, len(names))
	for _, name := range names {
		src, err := blif.WriteString(mcnc.Build(name))
		if err != nil {
			return err
		}
		base := service.Request{BLIF: src, Kind: "yield", Yield: yield}
		base.Options.DeltaOn = 1
		r0, err := runJob(base)
		if err != nil {
			return err
		}
		global := base
		global.Options.DeltaOn = 2
		r1, err := runJob(global)
		if err != nil {
			return err
		}
		sel := service.Request{BLIF: src, Kind: "resyn", Yield: yield,
			Resyn: service.ResynSpec{TargetYield: 1 - r1.Yield.Hi, MaxIters: maxIters, TopK: 3, MaxDeltaOn: 2}}
		sel.Options.DeltaOn = 1
		rs, err := runJob(sel)
		if err != nil {
			return err
		}
		rep := rs.Resyn
		row := resynRow{
			Benchmark:     name,
			BaseYield:     r0.Yield.Yield,
			BaseArea:      r0.Stats.Area,
			GlobalYield:   r1.Yield.Yield,
			GlobalArea:    r1.Stats.Area,
			SelectiveYld:  rep.FinalYield,
			SelectiveArea: rep.FinalArea,
			Iterations:    len(rep.Iterations),
			Hardened:      rep.HardenedGates,
			Stop:          rep.Stop,
			AreaSaved:     r1.Stats.Area - rep.FinalArea,
		}
		row.Win = row.Stop == resyn.StopTargetYield && row.SelectiveArea < row.GlobalArea
		rows = append(rows, row)
	}
	if jsonOut {
		if err := writeJSON(map[string]any{
			"experiment": "resyn", "model": "weight-variation", "v": v,
			"max_trials": maxTrials, "seed": seed, "rows": rows,
		}); err != nil {
			return err
		}
	} else {
		fmt.Printf("Selective re-synthesis vs global δon hardening — weight variation v=%.1f, %d trials\n\n", v, maxTrials)
		fmt.Printf("%-8s | %7s %6s | %7s %6s | %7s %6s %5s | %6s %s\n",
			"bench", "y(δ1)", "area", "y(δ2)", "area", "y(sel)", "area", "saved", "iters", "stop")
		fmt.Println("--------------------------------------------------------------------------------")
		wins := 0
		for _, r := range rows {
			mark := " "
			if r.Win {
				mark = "*"
				wins++
			}
			fmt.Printf("%-8s | %7.4f %6d | %7.4f %6d | %7.4f %6d %4d%s | %6d %s\n",
				r.Benchmark, r.BaseYield, r.BaseArea, r.GlobalYield, r.GlobalArea,
				r.SelectiveYld, r.SelectiveArea, r.AreaSaved, mark, r.Iterations, r.Stop)
		}
		fmt.Printf("\n%d/%d benchmarks reach the global-δon yield at strictly smaller area (*)\n", wins, len(rows))
	}
	return emit("resyn.csv", func(w io.Writer) error {
		if _, err := fmt.Fprintln(w, "benchmark,base_yield,base_area,global_yield,global_area,selective_yield,selective_area,iterations,hardened,stop,win"); err != nil {
			return err
		}
		for _, r := range rows {
			if _, err := fmt.Fprintf(w, "%s,%g,%d,%g,%d,%g,%d,%d,%d,%s,%t\n",
				r.Benchmark, r.BaseYield, r.BaseArea, r.GlobalYield, r.GlobalArea,
				r.SelectiveYld, r.SelectiveArea, r.Iterations, r.Hardened, r.Stop, r.Win); err != nil {
				return err
			}
		}
		return nil
	})
}
