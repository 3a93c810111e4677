// Command telsim is the simulation and inspection companion of cmd/tels,
// covering the remaining commands of the original TELS tool (threshold
// simulation and network information display):
//
//	telsim info <net.tln|net.blif>                network statistics
//	telsim run <net.tln|net.blif> [-n N] [-seed S]  simulate N random vectors
//	telsim compare <golden.blif> <impl.tln>       prove/check equivalence
//	telsim perturb <golden.blif> <impl.tln> [-v V] [-trials K]
//	                                              Monte-Carlo failure rate
//	telsim faults <impl.tln> [-n N] [-seed S]     single stuck-at fault sweep
//	telsim yield <golden.blif> <impl.tln> [-model weight|drift|stuck]
//	       [-v V] [-p P] [-maxtrials K] [-eps E]  Monte-Carlo yield estimate
//	telsim sweep <golden.blif> [-vs 0.4,0.8] [-dons 0,2] [-models weight]
//	       [-server URL] [-workers N]             yield curve via the service
//	telsim resyn <golden.blif> [-target Y] [-topk K] [-maxiters N]
//	       [-budget A] [-server URL]              selective re-synthesis loop
//	telsim dot <net.tln>                          Graphviz export
//
// faults, yield, perturb and compare's simulation fallback run on the
// packed fsim engine, the one simulator for threshold gates of any
// fanin: 64 vectors per machine word, exhaustive up to
// fsim.ExhaustiveInputs inputs, sampled beyond (faults samples at least
// fsim.DefaultSamples).
//
// sweep submits one kind="sweep" job — to a running telsd when -server is
// given, to an in-process manager otherwise — synthesizing each δon once
// and fanning the grid points across the worker pool. Progress is polled
// from GET /v1/jobs/{id} and printed as points land.
//
// resyn submits one kind="resyn" job the same way: the service
// synthesizes the baseline, then iterates yield estimation → first-flip
// blame ranking → per-gate δon hardening until the target yield, the
// area budget, or convergence. Iterations are polled from
// GET /v1/jobs/{id} and printed as they land; the hardened .tln goes to
// stdout with -o.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tels/internal/blif"
	"tels/internal/cli"
	"tels/internal/core"
	"tels/internal/fsim"
	"tels/internal/netcore"
	"tels/internal/service"
	"tels/internal/sim"
)

// options carries the flag values shared across subcommands.
type options struct {
	n         int
	seed      int64
	v         float64
	trials    int
	maxTrials int
	eps       float64
	model     string
	p         float64

	// sweep grid and transport
	vs       string
	dons     string
	models   string
	inflight int
	server   string
	apiKey   string
	workers  int
	quiet    bool

	// resyn loop
	don      int
	target   float64
	topk     int
	dstep    int
	maxdon   int
	maxiters int
	budget   int
	output   string
}

func main() {
	var o options
	flag.IntVar(&o.n, "n", 16, "random vectors for run; sample size for faults/yield on wide nets")
	flag.Int64Var(&o.seed, "seed", 1, "RNG seed")
	flag.Float64Var(&o.v, "v", 0.8, "variation multiplier for perturb and yield")
	flag.IntVar(&o.trials, "trials", 100, "Monte-Carlo trials for perturb")
	flag.IntVar(&o.maxTrials, "maxtrials", 2000, "trial cap for yield")
	flag.Float64Var(&o.eps, "eps", 0.02, "yield early-stop CI half-width")
	flag.StringVar(&o.model, "model", "weight", "yield defect model: weight, drift, or stuck")
	flag.Float64Var(&o.p, "p", 0.01, "per-gate stuck probability for -model stuck")
	flag.StringVar(&o.vs, "vs", "", "sweep: comma-separated variation multipliers (default -v)")
	flag.StringVar(&o.dons, "dons", "", "sweep: comma-separated δon margins (default the synthesis default)")
	flag.StringVar(&o.models, "models", "", "sweep: comma-separated defect models (default -model)")
	flag.IntVar(&o.inflight, "inflight", 0, "sweep: max concurrently outstanding points (default worker count)")
	flag.StringVar(&o.server, "server", "", "sweep: telsd base URL (default: in-process manager)")
	flag.StringVar(&o.apiKey, "api-key", "", "tenant API key for -server mode (telsd -api-keys)")
	flag.IntVar(&o.workers, "workers", 0, "sweep/resyn: in-process worker-pool size (default NumCPU)")
	flag.IntVar(&o.don, "don", 0, "resyn: baseline synthesis δon margin")
	flag.Float64Var(&o.target, "target", 0, "resyn: target yield (0 = run to convergence)")
	flag.IntVar(&o.topk, "topk", 0, "resyn: blamed gates hardened per iteration (default 3)")
	flag.IntVar(&o.dstep, "dstep", 0, "resyn: per-iteration δon increment (default 1)")
	flag.IntVar(&o.maxdon, "maxdon", 0, "resyn: per-gate δon cap (default base+8)")
	flag.IntVar(&o.maxiters, "maxiters", 0, "resyn: iteration cap (default 10)")
	flag.IntVar(&o.budget, "budget", 0, "resyn: area budget (0 = unbounded)")
	flag.StringVar(&o.output, "o", "", "resyn: write the hardened .tln here")
	quiet := flag.Bool("q", false, "suppress informational diagnostics")
	flag.Parse()
	o.quiet = *quiet
	t := cli.New("telsim")
	t.Quiet = *quiet
	if flag.NArg() < 1 {
		t.Usage("need a command (info, run, compare, perturb, faults, yield, sweep, resyn, dot)")
	}
	t.Fail(run(flag.Arg(0), flag.Args()[1:], o))
}

// loaded is a network in either representation.
type loaded struct {
	boolean   *netcore.Network
	threshold *core.Network
}

func load(path string) (loaded, error) {
	f, err := os.Open(path)
	if err != nil {
		return loaded{}, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".tln") {
		tn, err := core.ParseTLN(f)
		if err != nil {
			return loaded{}, fmt.Errorf("%s: %w", path, err)
		}
		return loaded{threshold: tn}, nil
	}
	nw, err := blif.ParseCore(f)
	if err != nil {
		return loaded{}, fmt.Errorf("%s: %w", path, err)
	}
	return loaded{boolean: nw}, nil
}

// yieldSpec is the yield analysis the flags ask for.
func (o options) yieldSpec() service.YieldSpec {
	return service.YieldSpec{Model: o.model, V: o.v, P: o.p, MaxTrials: o.maxTrials, HalfWidth: o.eps, Seed: o.seed}
}

// loadPair loads the golden BLIF network and the .tln implementation
// that cmd compares.
func loadPair(cmd, golden, impl string) (g, i loaded, err error) {
	if g, err = load(golden); err != nil {
		return g, i, err
	}
	if i, err = load(impl); err != nil {
		return g, i, err
	}
	if g.boolean == nil || i.threshold == nil {
		err = fmt.Errorf("%s needs a BLIF golden network and a .tln implementation", cmd)
	}
	return g, i, err
}

func run(cmd string, args []string, o options) error {
	switch cmd {
	case "info":
		if len(args) != 1 {
			return fmt.Errorf("info needs one netlist")
		}
		return info(args[0])
	case "run":
		if len(args) != 1 {
			return fmt.Errorf("run needs one netlist")
		}
		return simulate(args[0], o.n, o.seed)
	case "compare":
		if len(args) != 2 {
			return fmt.Errorf("compare needs <golden.blif> <impl.tln>")
		}
		return compare(args[0], args[1], o.seed)
	case "perturb":
		if len(args) != 2 {
			return fmt.Errorf("perturb needs <golden.blif> <impl.tln>")
		}
		return perturb(args[0], args[1], o)
	case "faults":
		if len(args) != 1 {
			return fmt.Errorf("faults needs one .tln netlist")
		}
		return faults(args[0], o)
	case "yield":
		if len(args) != 2 {
			return fmt.Errorf("yield needs <golden.blif> <impl.tln>")
		}
		return yield(args[0], args[1], o)
	case "sweep":
		if len(args) != 1 {
			return fmt.Errorf("sweep needs <golden.blif>")
		}
		return sweep(args[0], o)
	case "resyn":
		if len(args) != 1 {
			return fmt.Errorf("resyn needs <golden.blif>")
		}
		return resynCmd(args[0], o)
	case "dot":
		if len(args) != 1 {
			return fmt.Errorf("dot needs one .tln netlist")
		}
		l, err := load(args[0])
		if err != nil {
			return err
		}
		if l.threshold == nil {
			return fmt.Errorf("dot supports threshold (.tln) netlists")
		}
		return core.WriteDot(os.Stdout, l.threshold)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func info(path string) error {
	l, err := load(path)
	if err != nil {
		return err
	}
	if l.boolean != nil {
		s := l.boolean.Stats()
		fmt.Printf("%s: Boolean network\n", l.boolean.Name)
		fmt.Printf("  inputs   %d\n  outputs  %d\n  nodes    %d\n  levels   %d\n  literals %d\n",
			s.Inputs, s.Outputs, s.Gates, s.Levels, s.Literals)
		return nil
	}
	tn := l.threshold
	s := tn.Stats()
	fmt.Printf("%s: threshold network\n", tn.Name)
	fmt.Printf("  inputs  %d\n  outputs %d\n  gates   %d\n  levels  %d\n  area    %d (Eq. 14)\n",
		len(tn.Inputs), len(tn.Outputs), s.Gates, s.Levels, s.Area)
	hist := map[int]int{}
	maxW, maxT := 0, 0
	for _, g := range tn.Gates {
		hist[len(g.Inputs)]++
		for _, w := range g.Weights {
			if w < 0 {
				w = -w
			}
			if w > maxW {
				maxW = w
			}
		}
		t := g.T
		if t < 0 {
			t = -t
		}
		if t > maxT {
			maxT = t
		}
	}
	fanins := make([]int, 0, len(hist))
	for k := range hist {
		fanins = append(fanins, k)
	}
	sort.Ints(fanins)
	fmt.Printf("  fanin histogram:")
	for _, k := range fanins {
		fmt.Printf(" %d:%d", k, hist[k])
	}
	fmt.Printf("\n  max |weight| %d, max |T| %d\n", maxW, maxT)
	return nil
}

// simulate prints n random vectors and the network's outputs on them.
func simulate(path string, n int, seed int64) error {
	if n < 0 {
		return fmt.Errorf("run needs -n ≥ 0, got %d", n)
	}
	l, err := load(path)
	if err != nil {
		return err
	}
	var inputs, outputs []string
	var eval func(*fsim.Batch) ([][]uint64, error)
	if nw := l.boolean; nw != nil {
		for _, in := range nw.Inputs() {
			inputs = append(inputs, nw.NetName(in))
		}
		for _, o := range nw.Outputs() {
			outputs = append(outputs, nw.NetName(o))
		}
		bs, err := fsim.CompileBool(nw)
		if err != nil {
			return err
		}
		eval = bs.Eval
	} else {
		inputs, outputs = l.threshold.Inputs, l.threshold.Outputs
		ts, err := fsim.CompileThresh(l.threshold)
		if err != nil {
			return err
		}
		eval = ts.Eval
	}
	batch := fsim.Random(inputs, n, rand.New(rand.NewSource(seed)))
	out, err := eval(batch)
	if err != nil {
		return err
	}
	fmt.Printf("%s -> %s\n", strings.Join(inputs, " "), strings.Join(outputs, " "))
	for v := 0; v < n; v++ {
		var inBits, outBits strings.Builder
		in := batch.Assignment(v)
		for _, name := range inputs {
			inBits.WriteByte(bit(in[name]))
		}
		for o := range out {
			outBits.WriteByte(bit(fsim.Bit(out[o], v)))
		}
		fmt.Printf("%s -> %s\n", inBits.String(), outBits.String())
	}
	return nil
}

func bit(v bool) byte {
	if v {
		return '1'
	}
	return '0'
}

func compare(golden, impl string, seed int64) error {
	g, i, err := loadPair("compare", golden, impl)
	if err != nil {
		return err
	}
	res, err := sim.ProveCore(g.boolean, i.threshold, seed)
	if err != nil {
		return err
	}
	fmt.Printf("equivalent (%s)\n", res)
	return nil
}

func perturb(golden, impl string, o options) error {
	g, i, err := loadPair("perturb", golden, impl)
	if err != nil {
		return err
	}
	rate, err := sim.FailureRate(
		[]sim.Pair{{Name: impl, Bool: g.boolean, Threshold: i.threshold}},
		o.v, sim.FailureRateConfig{Trials: o.trials, Seed: o.seed})
	if err != nil {
		return err
	}
	fmt.Printf("v=%.2f: %d trials, failure rate %.1f%%\n", o.v, o.trials, 100*rate)
	return nil
}

func faults(impl string, o options) error {
	l, err := load(impl)
	if err != nil {
		return err
	}
	if l.threshold == nil {
		return fmt.Errorf("faults supports threshold (.tln) netlists")
	}
	batch := fsim.Vectors(l.threshold.Inputs, max(o.n, fsim.DefaultSamples), rand.New(rand.NewSource(o.seed)))
	rep, err := fsim.FaultSweep(l.threshold, batch)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	for _, s := range rep.Sites {
		status := fmt.Sprintf("detected by %d vectors", s.Detected)
		if s.Detected == 0 {
			status = "UNDETECTABLE"
		}
		fmt.Printf("  %s stuck-at-%d: %s\n", s.Gate, s.Stuck, status)
	}
	return nil
}

func yield(golden, impl string, o options) error {
	g, i, err := loadPair("yield", golden, impl)
	if err != nil {
		return err
	}
	model, err := o.yieldSpec().DefectModel()
	if err != nil {
		return err
	}
	cfg := o.yieldSpec().Trials()
	cfg.Samples = o.n
	rep, err := fsim.EstimateYield(g.boolean, i.threshold, model, cfg)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	for n, s := range rep.Critical {
		if n >= 5 {
			break
		}
		fmt.Printf("  critical %d: %s (blamed for %d failing lanes, flipped on %d)\n",
			n+1, s.Gate, s.Blamed, s.Flipped)
	}
	return nil
}

// sweep drives one kind="sweep" job through the service layer and renders
// the resulting yield curve.
func sweep(golden string, o options) error {
	src, err := os.ReadFile(golden)
	if err != nil {
		return err
	}
	vs, err := parseFloats(o.vs)
	if err != nil {
		return fmt.Errorf("-vs: %w", err)
	}
	dons, err := parseInts(o.dons)
	if err != nil {
		return fmt.Errorf("-dons: %w", err)
	}
	var models []string
	if o.models != "" {
		models = strings.Split(o.models, ",")
	}
	spec := service.SweepJobSpec{
		SynthSpec: service.SynthSpec{BLIF: string(src), Seed: o.seed},
		Yield:     o.yieldSpec(),
		Sweep:     service.SweepSpec{Vs: vs, DeltaOns: dons, Models: models, MaxInFlight: o.inflight},
	}
	progress := func(j service.Job) {
		if o.quiet || j.Progress == nil {
			return
		}
		fmt.Fprintf(os.Stderr, "\rsweep %s: %d/%d points", j.ID, j.Progress.DonePoints, j.Progress.TotalPoints)
	}
	env, err := specEnvelope("sweep", spec)
	if err != nil {
		return err
	}
	final, err := runServiceJob(env, o, progress)
	if err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintln(os.Stderr)
	}
	if final.State != service.StateDone {
		return fmt.Errorf("sweep %s: %s", final.State, final.Error)
	}
	sr := final.Result.Sweep
	fmt.Printf("# sweep of %s: %d points in %d ms\n", golden, sr.DonePoints, sr.WallMS)
	fmt.Printf("%-4s %-8s %-6s %-6s %-6s %-10s %-8s %s\n",
		"don", "model", "v", "gates", "area", "fail_rate", "yield", "cache")
	for _, p := range sr.Points {
		if p.Error != "" {
			fmt.Printf("%-4d %-8s %-6.2f point failed: %s\n", p.DeltaOn, p.Model, p.V, p.Error)
			continue
		}
		cache := "miss"
		if p.CacheHit {
			cache = "hit"
		}
		fmt.Printf("%-4d %-8s %-6.2f %-6d %-6d %-10.4f %-8.4f %s\n",
			p.DeltaOn, p.Model, p.V, p.Gates, p.Area, p.FailureRate, p.Yield, cache)
	}
	return nil
}

// specEnvelope wraps a job spec in its kind-tagged submission, the same
// bytes the HTTP path sends.
func specEnvelope(kind string, spec any) (service.SubmitEnvelope, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return service.SubmitEnvelope{}, err
	}
	return service.SubmitEnvelope{Kind: kind, Spec: raw}, nil
}

// runServiceJob submits the envelope — to a running telsd when -server
// is set, to an in-process manager otherwise — and polls the job to a
// terminal state, invoking progress on every snapshot.
func runServiceJob(env service.SubmitEnvelope, o options, progress func(service.Job)) (service.Job, error) {
	ctx := context.Background()
	if o.server != "" {
		c := &service.Client{BaseURL: o.server, APIKey: o.apiKey, PollInterval: 100 * time.Millisecond}
		job, err := c.SubmitEnvelope(ctx, env)
		if err != nil {
			return service.Job{}, describeAPIError(err)
		}
		// Watch streams progress over SSE and falls back to polling when
		// the stream is unavailable.
		job, err = c.Watch(ctx, job.ID, func(ev service.JobEvent) {
			if ev.Job != nil {
				progress(*ev.Job)
			}
		})
		if err != nil {
			return service.Job{}, describeAPIError(err)
		}
		return job, nil
	}
	m := service.New(service.Config{Workers: o.workers})
	defer m.Close()
	ccBefore := core.SnapshotCheckCounters()
	defer func() {
		if o.quiet {
			return
		}
		cc := core.SnapshotCheckCounters()
		if cc.Checks == ccBefore.Checks {
			return
		}
		fmt.Fprintf(os.Stderr, "threshold checks: %d, %d unsat-cache hits, %d budget bailouts\n",
			cc.Checks-ccBefore.Checks, cc.UnsatCacheHits-ccBefore.UnsatCacheHits,
			cc.BudgetBailouts-ccBefore.BudgetBailouts)
	}()
	req, err := env.Request()
	if err != nil {
		return service.Job{}, err
	}
	job, err := m.Submit(req)
	if err != nil {
		return service.Job{}, err
	}
	for {
		snap, ok := m.Get(job.ID)
		if !ok {
			return service.Job{}, fmt.Errorf("job %s vanished", job.ID)
		}
		progress(snap)
		if snap.State.Terminal() {
			return snap, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// describeAPIError surfaces the envelope's machine-readable code on a
// server rejection, with actionable hints for the auth and quota cases,
// so a scripted caller can tell a quota push-back from a bad spec.
func describeAPIError(err error) error {
	var se *service.StatusError
	if !errors.As(err, &se) {
		return err
	}
	switch {
	case service.IsQuotaExceeded(err):
		return fmt.Errorf("telsim: tenant quota exceeded [%s]: %s (retry after %s)", se.Code, se.Message, se.RetryAfter)
	case service.IsUnauthorized(err):
		return fmt.Errorf("telsim: server requires an API key [%s]: %s (pass -api-key)", se.Code, se.Message)
	case service.IsForbidden(err):
		return fmt.Errorf("telsim: API key rejected [%s]: %s", se.Code, se.Message)
	case service.IsOverloaded(err):
		return fmt.Errorf("telsim: server overloaded [%s]: %s (retry after %s)", se.Code, se.Message, se.RetryAfter)
	}
	return fmt.Errorf("telsim: server error [%s]: %w", se.Code, err)
}

// resynCmd drives one kind="resyn" job through the service layer and
// renders the hardening trajectory.
func resynCmd(golden string, o options) error {
	src, err := os.ReadFile(golden)
	if err != nil {
		return err
	}
	don := o.don
	spec := service.ResynJobSpec{
		SynthSpec: service.SynthSpec{BLIF: string(src), Seed: o.seed, DeltaOn: &don},
		Yield:     o.yieldSpec(),
		Resyn: service.ResynSpec{
			TopK:        o.topk,
			DeltaStep:   o.dstep,
			MaxDeltaOn:  o.maxdon,
			MaxIters:    o.maxiters,
			TargetYield: o.target,
			AreaBudget:  o.budget,
		},
	}
	progress := func(j service.Job) {
		if o.quiet || j.Progress == nil {
			return
		}
		n := len(j.Progress.Iterations)
		if n == 0 {
			return
		}
		it := j.Progress.Iterations[n-1]
		fmt.Fprintf(os.Stderr, "\rresyn %s: iter %d, yield %.4f, area %d, %d hardened",
			j.ID, it.Iter, it.Yield, it.Area, len(it.Hardened))
	}
	env, err := specEnvelope("resyn", spec)
	if err != nil {
		return err
	}
	final, err := runServiceJob(env, o, progress)
	if err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintln(os.Stderr)
	}
	if final.State != service.StateDone {
		return fmt.Errorf("resyn %s: %s", final.State, final.Error)
	}
	rep := final.Result.Resyn
	fmt.Printf("# resyn of %s under %s: %s after %d iterations\n",
		golden, rep.Model, rep.Stop, len(rep.Iterations))
	fmt.Printf("%-5s %-8s %-8s %-6s %-6s %s\n", "iter", "yield", "ci", "gates", "area", "hardened")
	for _, it := range rep.Iterations {
		var hardened []string
		for _, h := range it.Hardened {
			tag := fmt.Sprintf("%s→δ%d", h.Gate, h.DeltaOn)
			if h.Decomposed {
				tag += fmt.Sprintf("(+%d gates)", h.AddedGates)
			}
			hardened = append(hardened, tag)
		}
		fmt.Printf("%-5d %-8.4f ±%-7.3f %-6d %-6d %s\n",
			it.Iter, it.Yield, (it.Hi-it.Lo)/2, it.Gates, it.Area, strings.Join(hardened, " "))
	}
	fmt.Printf("yield %.4f → %.4f, area %d → %d (+%d), %d gate hardenings (%d memoised)\n",
		rep.InitialYield, rep.FinalYield, rep.InitialArea, rep.FinalArea,
		rep.FinalArea-rep.InitialArea, rep.HardenedGates, rep.CacheHits)
	if o.output != "" {
		if err := os.WriteFile(o.output, []byte(final.Result.TLN), 0o644); err != nil {
			return err
		}
		fmt.Printf("hardened network written to %s\n", o.output)
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
