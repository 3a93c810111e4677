// Command perfbench is the repository benchmark: it runs one workload of
// the paper's flow (BLIF text in, verified .tln text out) for a fixed
// time, checks every output, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 392, "failed": 0, "metrics": {"pass_s": {"value": 10.2, "unit": "s"}, ...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) time every layer call from outside and report the per-layer
// metrics instead. See README.md for the workloads and the metric map.
//
// Run it through run.sh, which builds it and the telsd daemon:
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // tiny job lists, one set-up: the benchmark's own tests
	root     string // repository root (holds internal/expt/testdata/golden)
	telsd    string // telsd binary for the telsd workload
}

// workload is one benchmark workload.
type workload interface {
	// setup makes the inputs from the seed, prepares the workload and runs
	// one untimed warm-up job. It may run again; each run starts afresh.
	setup() error
	// pass runs the whole job list once. A non-nil tracer records the
	// per-layer figures of the pass.
	pass(tr *tracer) (passResult, error)
	// afterTrace returns per-layer figures measured once per traced run,
	// outside the passes (the opt per-pass replay), or nil.
	afterTrace() (map[string]float64, error)
	// peakRSSMB is the peak resident set of the process doing the work.
	peakRSSMB() (float64, error)
	close()
}

// passResult is one timed pass.
type passResult struct {
	wall      time.Duration
	latMS     []float64 // per attempted job, in ms
	attempted int
	failed    int
	total     quality // Table I totals over the pass's distinct jobs
	layer     map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: corpus, wide, or telsd")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.telsd, "telsd", filepath.Join(".bench_build", "bin", "telsd"), "telsd binary")
	flag.Parse()
	cfg.trace = trace == 1

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "corpus":
		return newCorpus(cfg), nil
	case "wide":
		return newWide(cfg), nil
	case "telsd":
		return newTelsd(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want corpus, wide, or telsd)", cfg.workload)
}

// setupRuns is how many complete set-ups a run makes; setup_s is their
// median.
func setupRuns(cfg config) int {
	switch {
	case cfg.quick:
		return 1
	case cfg.workload == "wide":
		return 3
	}
	return 9
}

// run sets up, then runs passes until the next one would overrun the
// measuring time. A traced run alternates untraced and traced passes, so
// the two pass times it compares share the same conditions.
func run(cfg config) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()

	var setups []float64
	for i := 0; i < setupRuns(cfg); i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	minPlain := 2
	if cfg.trace {
		minPlain = 1
	}
	var plain, traced []passResult
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for {
		var tr *tracer
		if cfg.trace && len(traced) < len(plain) {
			tr = newTracer()
		}
		p, err := w.pass(tr)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			p.layer = tr.figures(p.layer)
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		enough := len(plain) >= minPlain && (!cfg.trace || len(traced) >= 1)
		if enough && time.Since(start)+p.wall > budget {
			break
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	all := append(append([]passResult(nil), plain...), traced...)
	for _, p := range all {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.total != all[0].total {
			fmt.Fprintf(os.Stderr, "perfbench: quality totals differ between passes: %+v vs %+v\n", all[0].total, p.total)
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	if !cfg.trace {
		endToEnd(res, plain, setups, all[0].total)
		rss, err := w.peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		return res, nil
	}

	extra, err := w.afterTrace()
	if err != nil {
		return nil, err
	}
	perLayer(res, plain, traced, extra)
	return res, nil
}

func endToEnd(res *result, plain []passResult, setups []float64, total quality) {
	var walls, lats []float64
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		lats = append(lats, p.latMS...)
	}
	res.Metrics["pass_s"] = metric{median(walls), "s"}
	res.Metrics["job_p50_ms"] = metric{quantile(lats, 0.5), "ms"}
	res.Metrics["job_p90_ms"] = metric{quantile(lats, 0.9), "ms"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["gates_total"] = metric{float64(total.gates), "count"}
	res.Metrics["levels_total"] = metric{float64(total.levels), "count"}
	res.Metrics["area_total"] = metric{float64(total.area), "count"}
	res.Metrics["ok_frac"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
	fmt.Fprintf(os.Stderr, "perfbench: %d job latencies; pass walls %.3f s; set-ups %.3f s\n", len(lats), walls, setups)
}

// perLayer reports every per-layer metric: the median over traced passes
// of each figure (0 where the workload does not reach the layer), the
// once-per-run figures, and the tracing overhead: traced minus untraced
// median pass time.
func perLayer(res *result, plain, traced []passResult, extra map[string]float64) {
	diverged := extra["opt.replay_diverged"] > 0
	for _, m := range perLayerMetrics {
		if m.replay && diverged {
			// The replay did not reproduce the script: leave its per-pass
			// figures out rather than attribute time to the wrong passes.
			fmt.Fprintf(os.Stderr, "perfbench: opt replay diverged, %s not reported\n", m.name)
			continue
		}
		var xs []float64
		for _, p := range traced {
			xs = append(xs, p.layer[m.name])
		}
		v := median(xs)
		if x, ok := extra[m.name]; ok {
			v = x
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	var pw, tw []float64
	for _, p := range plain {
		pw = append(pw, p.wall.Seconds())
	}
	for _, p := range traced {
		tw = append(tw, p.wall.Seconds())
	}
	res.Metrics["trace.pass_s"] = metric{median(tw), "s"}
	res.Metrics["trace.overhead_s"] = metric{median(tw) - median(pw), "s"}
}

// figures flattens the trace into per-layer metrics: <span>_ms and
// <span>_allocs per span, plus every count, over the given base figures.
func (t *tracer) figures(base map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range base {
		out[k] = v
	}
	for name, d := range t.dur {
		out[name+"_ms"] = ms(d)
		out[name+"_allocs"] = float64(t.allocs[name])
	}
	for name, v := range t.counts {
		out[name] = v
	}
	return out
}

// printTable writes every metric with its unit to standard error.
func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d correct=%t\n", res.Attempted, res.Failed, res.Correct)
}
