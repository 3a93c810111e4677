// Command tels is the ThrEshold Logic Synthesizer: it reads a
// combinational BLIF network, optionally optimizes it with an
// algebraic-factoring script, synthesizes a threshold (LTG) network per
// the DATE'04 TELS methodology, verifies it by simulation, and writes the
// result in the .tln format.
//
// Usage:
//
//	tels [flags] [input.blif]
//
// With no input file, BLIF is read from standard input. With -server URL
// the flow is executed by a telsd daemon instead of in-process: the BLIF
// is submitted as a job, polled to completion, and the resulting .tln
// fetched back — repeated runs of the same input hit the daemon's result
// cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"tels/internal/blif"
	"tels/internal/cli"
	"tels/internal/core"
	"tels/internal/opt"
	"tels/internal/rtd"
	"tels/internal/service"
	"tels/internal/sim"
)

// config mirrors the command-line flags.
type config struct {
	fanin     int
	deltaOn   int
	deltaOff  int
	maxWeight int
	seed      int64
	script    string
	mapper    string
	output    string
	rtdOut    string
	verify    bool
	server    string
	args      []string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.fanin, "fanin", 3, "fanin restriction ψ per threshold gate")
	flag.IntVar(&cfg.deltaOn, "don", 0, "defect tolerance δon")
	flag.IntVar(&cfg.deltaOff, "doff", 1, "defect tolerance δoff")
	flag.Int64Var(&cfg.seed, "seed", 0, "tie-break seed for the splitting heuristics")
	flag.IntVar(&cfg.maxWeight, "maxw", 0, "bound on |weight| per gate input (0 = unbounded)")
	flag.StringVar(&cfg.script, "script", "algebraic", "pre-synthesis optimization: algebraic, boolean, or none")
	flag.StringVar(&cfg.mapper, "map", "tels", "mapping: tels (threshold synthesis) or one2one (baseline)")
	flag.StringVar(&cfg.output, "o", "", "write the threshold network (.tln) to this file (default stdout)")
	flag.StringVar(&cfg.rtdOut, "rtd", "", "also write an RTD/MOBILE netlist to this file")
	flag.BoolVar(&cfg.verify, "verify", true, "simulate the result against the source network")
	flag.StringVar(&cfg.server, "server", "", "run the flow through a telsd daemon at this URL instead of in-process")
	quiet := flag.Bool("q", false, "suppress the statistics summary")
	flag.Parse()
	cfg.args = flag.Args()
	t := cli.New("tels")
	t.Quiet = *quiet
	t.Fail(run(t, cfg))
}

func run(t *cli.Tool, cfg config) error {
	if err := opt.CheckScript(cfg.script); err != nil {
		return err
	}
	if err := core.CheckMapper(cfg.mapper); err != nil {
		return err
	}
	var in io.Reader = os.Stdin
	srcName := "<stdin>"
	if len(cfg.args) > 1 {
		return fmt.Errorf("expected at most one input file, got %d", len(cfg.args))
	}
	if len(cfg.args) == 1 {
		f, err := os.Open(cfg.args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
		srcName = cfg.args[0]
	}

	if cfg.server != "" {
		return runRemote(t, cfg, in, srcName)
	}
	return runLocal(t, cfg, in, srcName)
}

// runLocal executes the whole flow in-process.
func runLocal(t *cli.Tool, cfg config, in io.Reader, srcName string) error {
	src, err := blif.ParseCore(in)
	if err != nil {
		return fmt.Errorf("%s: %w", srcName, err)
	}
	optimized, err := opt.Run(cfg.script, src)
	if err != nil {
		return err
	}

	o := core.Options{Fanin: cfg.fanin, DeltaOn: cfg.deltaOn, DeltaOff: cfg.deltaOff,
		Seed: cfg.seed, MaxWeight: cfg.maxWeight}
	ccBefore := core.SnapshotCheckCounters()
	tn, stats, err := core.Map(cfg.mapper, optimized, o)
	if err != nil {
		return err
	}

	verifyMode := sim.Proved
	if cfg.verify {
		res, err := sim.ProveCore(src, tn, 1)
		if err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		verifyMode = res
	}

	if err := writeOutputs(t, cfg, tn); err != nil {
		return err
	}

	s := tn.Stats()
	t.Infof("%s: %d gates, %d levels, area %d (ψ=%d, δon=%d, δoff=%d)",
		tn.Name, s.Gates, s.Levels, s.Area, cfg.fanin, cfg.deltaOn, cfg.deltaOff)
	if cfg.mapper == "tels" {
		t.Infof("%d ILP checks (%d threshold), %d collapses, %d unate / %d binate splits, %d Theorem-2 merges",
			stats.ILPCalls, stats.ILPFeasible, stats.Collapses,
			stats.UnateSplits, stats.BinateSplits, stats.Theorem2)
		cc := core.SnapshotCheckCounters()
		t.Infof("threshold checks: %d, %d unsat-cache hits, %d budget bailouts",
			cc.Checks-ccBefore.Checks, cc.UnsatCacheHits-ccBefore.UnsatCacheHits,
			cc.BudgetBailouts-ccBefore.BudgetBailouts)
	}
	if cfg.verify {
		switch verifyMode {
		case sim.Proved:
			t.Infof("equivalence proved (BDD) against the source network")
		default:
			t.Infof("equivalence checked by simulation against the source network")
		}
	}
	return nil
}

// runRemote drives the flow through a telsd daemon: submit, poll, fetch.
func runRemote(t *cli.Tool, cfg config, in io.Reader, srcName string) error {
	text, err := io.ReadAll(in)
	if err != nil {
		return fmt.Errorf("%s: %w", srcName, err)
	}
	c := &service.Client{BaseURL: cfg.server}
	ctx := context.Background()
	don, doff := cfg.deltaOn, cfg.deltaOff
	job, err := c.SubmitSynth(ctx, service.SynthSpec{
		BLIF:       string(text),
		Script:     cfg.script,
		Mapper:     cfg.mapper,
		Fanin:      cfg.fanin,
		DeltaOn:    &don,
		DeltaOff:   &doff,
		Seed:       cfg.seed,
		MaxWeight:  cfg.maxWeight,
		SkipVerify: !cfg.verify,
	})
	if err != nil {
		return err
	}
	t.Infof("submitted %s as %s (digest %.12s…)", srcName, job.ID, job.Digest)
	job, err = c.WaitDone(ctx, job.ID)
	if err != nil {
		return err
	}
	if job.State != service.StateDone {
		return fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
	}
	text2, err := c.TLN(ctx, job.ID)
	if err != nil {
		return err
	}
	tn, err := core.ParseTLNString(text2)
	if err != nil {
		return fmt.Errorf("server returned malformed .tln: %w", err)
	}
	if err := writeOutputs(t, cfg, tn); err != nil {
		return err
	}
	if job.Result != nil {
		r := job.Result
		from := "synthesized"
		if r.CacheHit {
			from = "served from cache"
		}
		t.Infof("%s: %d gates, %d levels, area %d — %s, verification %s",
			tn.Name, r.Stats.Gates, r.Stats.Levels, r.Stats.Area, from, r.Verified)
	}
	return nil
}

// writeOutputs renders the .tln (and optional RTD netlist) per the flags.
func writeOutputs(t *cli.Tool, cfg config, tn *core.Network) error {
	out := os.Stdout
	if cfg.output != "" {
		f, err := os.Create(cfg.output)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := core.WriteTLN(out, tn); err != nil {
		return err
	}

	if cfg.rtdOut != "" {
		nl := rtd.Map(tn)
		f, err := os.Create(cfg.rtdOut)
		if err != nil {
			return err
		}
		if err := nl.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		s := nl.Stats()
		t.Infof("RTD mapping: %d MOBILEs, %d RTDs, %d HFETs, area %d -> %s",
			s.Mobiles, s.RTDs, s.HFETs, s.Area, cfg.rtdOut)
	}
	return nil
}
