package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tracer accumulates, per layer span, the time spent inside the call and
// the heap objects allocated during it, plus plain counts. A nil tracer
// records nothing: untraced passes pay only a closure call per span.
type tracer struct {
	dur    map[string]time.Duration
	allocs map[string]uint64
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{dur: map[string]time.Duration{}, allocs: map[string]uint64{}, counts: map[string]float64{}}
}

// span runs f as the named layer call. Allocation counts come from
// runtime.ReadMemStats around the call, so they include goroutines f
// starts (the solver portfolio's racers) while it runs.
func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	t.dur[name] += d
	t.allocs[name] += m1.Mallocs - m0.Mallocs
}

func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics. xs must be non-empty; it is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// peakRSSMB reads VmHWM, the peak resident set size, of a process from
// /proc ("self" for this one), in megabytes.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1000, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
