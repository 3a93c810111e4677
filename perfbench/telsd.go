package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// telsdClients is the closed loop's client count: each client submits,
// follows the job's event stream to the end, then submits the next.
const telsdClients = 2

// yieldTrials is the fixed Monte-Carlo trial count of yield jobs.
const yieldTrials = 256

// telsdJob is one submission of a pass.
type telsdJob struct {
	bench string
	pipeline
	yield bool
	// resubmitOf is the index of the job this one repeats exactly (a cache
	// hit), or -1.
	resubmitOf int
}

// telsdWorkload drives a freshly booted telsd over loopback HTTP.
type telsdWorkload struct {
	cfg    config
	texts  map[string]string
	srcs   map[string]boolNet
	names  []string
	rng    *rand.Rand // draws each pass's job list from the seed
	jobs   []telsdJob
	d      *daemon
	passNo int
}

func newTelsd(cfg config) *telsdWorkload { return &telsdWorkload{cfg: cfg} }

// telsdSkip is the benchmark left out of the telsd job list: its jobs take
// seconds each, so in a two-client closed loop where they fall in the
// order would set the pass time.
const telsdSkip = "i10"

// telsdJobs is one pass's job list: every corpus job once, bar telsdSkip
// — the algebraic→tels ones as yield jobs (about a fifth) — plus exact
// resubmits of a tenth of them, placed after their originals. The random
// source permutes the order and picks the resubmitted jobs; the job
// multiset, and so the work and the Table I totals, is the same for every
// draw.
func telsdJobs(names []string, rng *rand.Rand) []telsdJob {
	var base []telsdJob
	for _, name := range names {
		if name == telsdSkip {
			continue
		}
		for _, p := range pipelines {
			base = append(base, telsdJob{bench: name, pipeline: p, yield: p == pipelines[1], resubmitOf: -1})
		}
	}
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
	// Each repeat goes two or more places after its original: both
	// clients have submitted the original by then, so the repeat finds it
	// cached or in flight.
	repeatsAfter := map[int][]int{}
	for _, orig := range rng.Perm(len(base) - 2)[:(len(base)+9)/10] {
		after := orig + 2 + rng.Intn(len(base)-orig-2)
		repeatsAfter[after] = append(repeatsAfter[after], orig)
	}
	var jobs []telsdJob
	pos := make([]int, len(base))
	for i, j := range base {
		pos[i] = len(jobs)
		jobs = append(jobs, j)
		for _, orig := range repeatsAfter[i] {
			r := base[orig]
			r.resubmitOf = pos[orig]
			jobs = append(jobs, r)
		}
	}
	return jobs
}

func (w *telsdWorkload) setup() error {
	w.texts, w.srcs = map[string]string{}, map[string]boolNet{}
	w.names = benchNames(w.cfg)
	for _, name := range w.names {
		text, err := benchmarkBLIF(name)
		if err != nil {
			return err
		}
		src, err := parseBLIF(nil, text)
		if err != nil {
			return err
		}
		w.texts[name], w.srcs[name] = text, src
	}
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
	// The free port is found by binding and releasing it; another process
	// can take it before telsd binds, so a failed boot is retried.
	var d *daemon
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if d, err = startDaemon(w.cfg.telsd); err == nil {
			break
		}
	}
	if err != nil {
		return err
	}
	w.d = d
	warm := daemonRequest{blif: renameModel(w.texts[warmupBench], "_warmup"), script: "boolean", mapper: "tels"}
	job, err := w.d.client.submitAndWait(context.Background(), warm)
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	if o := outcomeOf(job); !o.done {
		return fmt.Errorf("warm-up job: %s", o.errText)
	}
	return nil
}

// renameModel appends a suffix to the BLIF model name. Each pass renames
// its models, so a pass never hits results an earlier pass cached; the
// name reaches only the .tln header, never the synthesis.
func renameModel(text, suffix string) string {
	i := strings.IndexByte(text, '\n')
	return text[:i] + suffix + text[i:]
}

type telsdResult struct {
	lat time.Duration
	out jobOutcome
	err error
}

func (w *telsdWorkload) pass(tr *tracer) (passResult, error) {
	w.passNo++
	suffix := "_p" + strconv.Itoa(w.passNo)
	// A fresh order every pass: in the closed loop a job's wait depends on
	// the job it queues behind, so varying the pairs steadies the median.
	w.jobs = telsdJobs(w.names, w.rng)
	ctx := context.Background()
	var before map[string]int64
	if tr != nil {
		var err error
		if before, err = w.d.client.metrics(ctx); err != nil {
			return passResult{}, err
		}
	}

	results := make([]telsdResult, len(w.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < telsdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.jobs) {
					return
				}
				j := w.jobs[i]
				req := daemonRequest{blif: renameModel(w.texts[j.bench], suffix), script: j.script, mapper: j.mapper}
				if j.yield {
					req.yieldTrials = yieldTrials
				}
				t0 := time.Now()
				job, err := w.d.client.submitAndWait(ctx, req)
				results[i] = telsdResult{lat: time.Since(t0), out: outcomeOf(job), err: err}
			}
		}()
	}
	wg.Wait()
	p := passResult{wall: time.Since(start), layer: map[string]float64{}}

	// The referee, outside the timed pass: every returned .tln is parsed
	// back and proved against its source; repeats must match their
	// originals.
	var queue, run, httpMS []float64
	for i, j := range w.jobs {
		r := results[i]
		p.attempted++
		p.latMS = append(p.latMS, ms(r.lat))
		if err := w.referee(j, r, results); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %d (%s): %v\n", i, j.key(j.bench), err)
			p.failed++
			continue
		}
		httpMS = append(httpMS, ms(r.lat)-r.out.serverMS)
		if j.resubmitOf >= 0 {
			continue
		}
		p.total.gates += r.out.q.gates
		p.total.levels += r.out.q.levels
		p.total.area += r.out.q.area
		if tr == nil || r.out.cacheHit {
			continue
		}
		queue = append(queue, r.out.queueMS)
		run = append(run, r.out.serverMS-r.out.queueMS)
		for stage, v := range r.out.stageMS {
			tr.add("service.stage_"+stage+"_ms", v)
		}
		tr.addSynthStats(r.out.st)
	}
	if tr != nil {
		after, err := w.d.client.metrics(ctx)
		if err != nil {
			return passResult{}, err
		}
		hits := after["cache_hits"] - before["cache_hits"]
		misses := after["cache_misses"] - before["cache_misses"]
		if hits+misses > 0 {
			tr.add("service.cache_hit_frac", float64(hits)/float64(hits+misses))
		}
		if len(queue) > 0 {
			tr.add("service.queue_ms", median(queue))
			tr.add("service.run_ms", median(run))
		}
		if len(httpMS) > 0 {
			tr.add("service.http_ms", median(httpMS))
		}
	}
	return p, nil
}

// referee checks one daemon job: it finished, its .tln parses and proves
// equivalent to the source, its reported figures match the network, a
// yield job carries its report, and a repeat returns its original's text.
func (w *telsdWorkload) referee(j telsdJob, r telsdResult, all []telsdResult) error {
	if r.err != nil {
		return r.err
	}
	if !r.out.done {
		return fmt.Errorf("job failed: %s", r.out.errText)
	}
	if j.resubmitOf >= 0 {
		if orig := all[j.resubmitOf].out; orig.tln != r.out.tln {
			return fmt.Errorf("repeat returned a different .tln than its original")
		}
		return nil
	}
	tn, err := parseTLN(r.out.tln)
	if err != nil {
		return fmt.Errorf("returned .tln: %w", err)
	}
	if err := prove(nil, w.srcs[j.bench], tn); err != nil {
		return fmt.Errorf("returned .tln: %w", err)
	}
	if q := qualityOf(tn); q != r.out.q {
		return fmt.Errorf("reported stats %+v, .tln has %+v", r.out.q, q)
	}
	if j.yield && !r.out.hasYield {
		return fmt.Errorf("yield job without a yield report")
	}
	return nil
}

func (w *telsdWorkload) afterTrace() (map[string]float64, error) { return nil, nil }

func (w *telsdWorkload) peakRSSMB() (float64, error) {
	if w.d == nil {
		return 0, fmt.Errorf("no daemon")
	}
	return peakRSSMB(strconv.Itoa(w.d.cmd.Process.Pid))
}

func (w *telsdWorkload) close() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

// daemon is one telsd child process.
type daemon struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	exited chan struct{}
	client daemonClient
}

// startDaemon boots telsd on a free loopback port and waits until
// /v1/readyz answers 200.
func startDaemon(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-workers", "1", "-q")
	d.cmd.Stderr = &d.stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start telsd: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	url := "http://" + addr
	d.client = newDaemonClient(url)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("telsd exited during boot: %s", d.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("telsd not ready after 30s")
		}
	}
}

// stop asks the daemon to shut down, kills it if it lingers, and waits
// until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}
