package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// pipeline is one optimization script × mapper of the golden gate.
type pipeline struct{ script, mapper string }

// pipelines are the four corpus pipelines; "none" is the golden gate's
// "raw".
var pipelines = []pipeline{
	{"none", "tels"},
	{"algebraic", "tels"},
	{"boolean", "tels"},
	{"boolean", "one2one"},
}

func (p pipeline) key(bench string) string {
	script := p.script
	if script == "none" {
		script = "raw"
	}
	return bench + "." + script + "." + p.mapper
}

// libJob is one in-process job.
type libJob struct {
	key  string
	text string  // corpus: the BLIF source, parsed inside the job
	src  boolNet // wide: the parsed source, proved against
	fac  boolNet // wide: the algebraically factored source, synthesized
	pipeline
	opts synthOpts
}

// library runs the in-process workloads, one job at a time, each with a
// cold UNSAT cache like one run of the tels CLI.
type library struct {
	build  func() ([]libJob, error) // makes the job list from the seed
	warmup libJob
	jobs   []libJob
	golden map[string]string // corpus: golden gate digests by job key
	// optPrints holds, per job index, the fingerprint of the script output
	// of the last traced pass, for the replay to match.
	optPrints map[int][32]byte
}

// quickNames is the tiny benchmark subset of the quick mode.
var quickNames = []string{"cm152a", "maj5", warmupBench}

func benchNames(cfg config) []string {
	if cfg.quick {
		return quickNames
	}
	return benchmarkNames()
}

// permute shuffles the jobs by the seed.
func permute(jobs []libJob, seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
}

// newCorpus is the golden gate's 196 jobs: every benchmark through every
// pipeline with the default options, BLIF text in, in an order the seed
// permutes.
func newCorpus(cfg config) *library {
	w := &library{}
	w.build = func() ([]libJob, error) {
		texts := map[string]string{}
		var jobs []libJob
		for _, name := range benchNames(cfg) {
			text, err := benchmarkBLIF(name)
			if err != nil {
				return nil, err
			}
			texts[name] = text
			for _, p := range pipelines {
				jobs = append(jobs, libJob{key: p.key(name), text: text, pipeline: p, opts: defaultOptions()})
			}
		}
		permute(jobs, cfg.seed)
		golden, err := readGolden(filepath.Join(cfg.root, "internal", "expt", "testdata", "golden", "MANIFEST.sha256"))
		if err != nil {
			return nil, err
		}
		w.golden = golden
		w.warmup = libJob{key: "warmup", text: texts[warmupBench], pipeline: pipelines[2], opts: defaultOptions()}
		return jobs, nil
	}
	return w
}

// warmupBench is the set-up's warm-up job source: its boolean→tels job
// takes about a tenth of a second, long enough to grow the heap and
// touch every layer and to keep the set-up time steady.
const warmupBench = "cmb"

// wideConfigs are the threshold-check-heavy synthesis settings: wide
// fanin, a nanotech defect margin, and an RTD weight cap.
func wideConfigs(seed int64) []synthOpts {
	a := defaultOptions()
	a.Fanin = 6
	b := defaultOptions()
	b.Fanin, b.DeltaOn = 8, 1
	c := defaultOptions()
	c.Fanin, c.MaxWeight = 8, 3
	out := []synthOpts{a, b, c}
	for i := range out {
		out[i].Seed = seed
	}
	return out
}

// newWide factors every benchmark during set-up, then synthesizes and
// proves each under the three wide configurations; the seed is the
// synthesis tie-break seed and permutes the order.
func newWide(cfg config) *library {
	w := &library{}
	w.build = func() ([]libJob, error) {
		var jobs []libJob
		for _, name := range benchNames(cfg) {
			text, err := benchmarkBLIF(name)
			if err != nil {
				return nil, err
			}
			src, err := parseBLIF(nil, text)
			if err != nil {
				return nil, err
			}
			fac := algebraic(src)
			for i, o := range wideConfigs(cfg.seed) {
				jobs = append(jobs, libJob{key: fmt.Sprintf("%s.w%d", name, i), src: src, fac: fac, pipeline: pipeline{"algebraic", "tels"}, opts: o})
			}
			if name == warmupBench {
				w.warmup = jobs[len(jobs)-3]
			}
		}
		permute(jobs, cfg.seed)
		return jobs, nil
	}
	return w
}

func (w *library) setup() error {
	jobs, err := w.build()
	if err != nil {
		return err
	}
	w.jobs = jobs
	if _, err := w.runJob(nil, -1, w.warmup); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	return nil
}

// jobResult is one job's outcome.
type jobResult struct {
	lat time.Duration
	q   quality
	tln string
}

// runJob runs one job from its input to a verified .tln text. Only the
// job itself is timed; the UNSAT cache reset precedes the clock.
func (w *library) runJob(tr *tracer, idx int, j libJob) (jobResult, error) {
	resetUnsatCache()
	start := time.Now()
	src, in := j.src, j.fac
	if in == nil {
		var err error
		if src, err = parseBLIF(tr, j.text); err != nil {
			return jobResult{}, fmt.Errorf("%s: parse: %w", j.key, err)
		}
		in = runScript(tr, j.script, src)
		if tr != nil && j.script != "none" {
			w.optPrints[idx] = fingerprint(in)
		}
	}
	tn, err := mapNetwork(tr, j.mapper, in, j.opts)
	if err != nil {
		return jobResult{}, fmt.Errorf("%s: %s: %w", j.key, j.mapper, err)
	}
	tln := tlnText(tn)
	if err := prove(tr, src, tn); err != nil {
		return jobResult{}, fmt.Errorf("%s: verification: %w", j.key, err)
	}
	return jobResult{lat: time.Since(start), q: qualityOf(tn), tln: tln}, nil
}

func (w *library) pass(tr *tracer) (passResult, error) {
	if tr != nil {
		w.optPrints = map[int][32]byte{}
	}
	p := passResult{layer: map[string]float64{}}
	drift := 0
	start := time.Now()
	for i, j := range w.jobs {
		p.attempted++
		r, err := w.runJob(tr, i, j)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			p.failed++
			continue
		}
		p.latMS = append(p.latMS, ms(r.lat))
		p.total.gates += r.q.gates
		p.total.levels += r.q.levels
		p.total.area += r.q.area
		if w.golden != nil {
			sum := sha256.Sum256([]byte(goldenText(r.q, r.tln)))
			if w.golden[j.key] != hex.EncodeToString(sum[:]) {
				drift++
			}
		}
	}
	p.wall = time.Since(start)
	p.layer["blif.golden_drift"] = float64(drift)
	return p, nil
}

// afterTrace replays every scripted job of the last traced pass pass by
// pass (corpus only: wide's scripts run in set-up) and checks that each
// replay reproduces the script's output.
func (w *library) afterTrace() (map[string]float64, error) {
	if len(w.optPrints) == 0 {
		return nil, nil
	}
	tr := newTracer()
	diverged := 0
	for i, j := range w.jobs {
		want, ok := w.optPrints[i]
		if !ok {
			continue
		}
		src, err := parseBLIF(nil, j.text)
		if err != nil {
			return nil, err
		}
		if fingerprint(replayScript(tr, j.script, src)) != want {
			diverged++
		}
	}
	out := tr.figures(nil)
	out["opt.replay_diverged"] = float64(diverged)
	return out, nil
}

func (w *library) peakRSSMB() (float64, error) { return peakRSSMB("self") }

func (w *library) close() {}

// readGolden loads the golden gate's manifest: "<sha256>  <job key>" lines.
func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("golden manifest: %w", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			out[fields[1]] = fields[0]
		}
	}
	return out, sc.Err()
}
