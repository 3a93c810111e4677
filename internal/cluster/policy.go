package cluster

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// latencyWindow is the sliding window of recent remote request
// latencies the hedge delay is derived from. Small and fixed: hedging
// should react to the last few dozen requests, not the whole run.
const latencyWindow = 64

// minHedgeSamples gates hedging until the window holds enough
// observations for a percentile to mean anything; before that the
// hedge delay is the configured maximum, so cold starts never duplicate
// work on a guess.
const minHedgeSamples = 8

// Latency tracks a sliding window of request latencies and reports
// percentiles of it.
type Latency struct {
	mu      sync.Mutex
	samples [latencyWindow]time.Duration
	n       int // filled entries (≤ latencyWindow)
	next    int // ring cursor
}

// Observe records one completed request's latency.
func (l *Latency) Observe(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples[l.next] = d
	l.next = (l.next + 1) % latencyWindow
	if l.n < latencyWindow {
		l.n++
	}
}

// Percentile returns the q-quantile (0 < q ≤ 1) of the window, and
// whether the window holds at least minHedgeSamples observations.
func (l *Latency) Percentile(q float64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n < minHedgeSamples {
		return 0, false
	}
	tmp := make([]time.Duration, l.n)
	copy(tmp, l.samples[:l.n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	i := int(q*float64(l.n)) - 1
	if i < 0 {
		i = 0
	}
	if i >= l.n {
		i = l.n - 1
	}
	return tmp[i], true
}

// Backoff returns the pause before retry attempt (0-based): an
// exponential of base capped at max, with ±25% jitter so a fleet of
// retriers doesn't re-converge on the struggling peer in lockstep. The
// jitter comes from the top-level math/rand source, which is safe for
// the many dispatch goroutines that back off at once.
func Backoff(attempt int, base, max time.Duration) time.Duration {
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if max <= 0 {
		max = 400 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > max || d <= 0 { // d ≤ 0 on shift overflow
		d = max
	}
	return time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
}
