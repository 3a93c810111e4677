package cluster

import (
	"context"
	"errors"
	"time"
)

// Config assembles one peer's view of the fleet.
type Config struct {
	// Self is this peer's own address as it appears in Peers.
	Self string
	// Peers is the static ring membership (every peer must be started
	// with the same list).
	Peers []string

	// FillTimeout bounds one cache-fill lookup on the owner peer
	// (0 = 500ms). Fills are an optimization: a slow owner must never
	// delay local compute by more than this.
	FillTimeout time.Duration
	// Retries is how many times a transiently failing compute call is
	// retried with backoff before the work is stolen back (0 = 2).
	Retries int
	// RetryBase and RetryMax bound the exponential backoff between
	// retries (0 = 25ms / 400ms).
	RetryBase time.Duration
	RetryMax  time.Duration

	// HedgeMin and HedgeMax clamp the hedge delay (0 = 100ms / 10s).
	// Until enough latency samples exist the delay is HedgeMax, so cold
	// starts don't duplicate work on a guess.
	HedgeMin time.Duration
	HedgeMax time.Duration

	// FailThreshold consecutive transport failures trip a peer's
	// breaker for Cooldown (0 = 3 / 2s).
	FailThreshold int
	Cooldown      time.Duration

	// AuthToken is the shared cluster bearer token attached to every
	// peer call (telsd -cluster-key). Empty sends no credentials — an
	// open-mode fleet.
	AuthToken string
}

func (c Config) withDefaults() Config {
	if c.FillTimeout <= 0 {
		c.FillTimeout = 500 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 400 * time.Millisecond
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 100 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 10 * time.Second
	}
	return c
}

// Cluster is one peer's dispatch handle on the fleet: ownership lookup,
// health-gated transport with retries, and the hedge policy.
type Cluster struct {
	cfg       Config
	ring      *Ring
	health    *Health
	latency   *Latency
	transport *Transport
}

// New validates the configuration and builds the cluster handle.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Self, cfg.Peers)
	if err != nil {
		return nil, err
	}
	tr := NewTransport()
	tr.Auth = cfg.AuthToken
	return &Cluster{
		cfg:       cfg,
		ring:      ring,
		health:    NewHealth(cfg.FailThreshold, cfg.Cooldown),
		latency:   &Latency{},
		transport: tr,
	}, nil
}

// Owner maps a digest to its owner peer and reports whether that is
// this peer itself.
func (c *Cluster) Owner(digest string) (addr string, self bool) {
	addr = c.ring.Owner(digest)
	return addr, addr == c.cfg.Self
}

// Self returns this peer's address.
func (c *Cluster) Self() string { return c.cfg.Self }

// Size returns the fleet size.
func (c *Cluster) Size() int { return c.ring.Size() }

// Available reports whether the peer's breaker admits a request.
func (c *Cluster) Available(addr string) bool { return c.health.Available(addr) }

// FillTimeout is the cache-fill lookup bound.
func (c *Cluster) FillTimeout() time.Duration { return c.cfg.FillTimeout }

// hedgeQuantile and hedgeMultiplier set HedgeDelay's policy.
const (
	hedgeQuantile   = 0.95
	hedgeMultiplier = 3
)

// HedgeDelay is how long a remote request may run before a local hedge
// is launched: 3× the p95 of recent remote latencies, clamped to
// [HedgeMin, HedgeMax]; HedgeMax until the latency window has enough
// samples.
func (c *Cluster) HedgeDelay() time.Duration {
	p, ok := c.latency.Percentile(hedgeQuantile)
	if !ok {
		return c.cfg.HedgeMax
	}
	d := time.Duration(float64(p) * hedgeMultiplier)
	if d < c.cfg.HedgeMin {
		d = c.cfg.HedgeMin
	}
	if d > c.cfg.HedgeMax {
		d = c.cfg.HedgeMax
	}
	return d
}

// Fetch asks one peer for a cached or persisted result, under the
// breaker. No retries: a fill is an optimization and the caller is
// about to compute anyway.
func (c *Cluster) Fetch(ctx context.Context, addr, digest string) ([]byte, error) {
	if !c.health.Available(addr) {
		return nil, ErrUnavailable
	}
	c.health.Begin(addr)
	data, err := c.transport.GetResult(ctx, addr, digest)
	// A miss is a healthy answer; only transport-level failures count
	// against the peer.
	c.health.End(addr, err != nil && !errors.Is(err, ErrNotFound))
	return data, err
}

// Push stores a result on the owner peer (best-effort, single try).
func (c *Cluster) Push(ctx context.Context, addr, digest string, result []byte) error {
	if !c.health.Available(addr) {
		return ErrUnavailable
	}
	c.health.Begin(addr)
	err := c.transport.PutResult(ctx, addr, digest, result)
	c.health.End(addr, err != nil)
	return err
}

// Compute runs one job to completion on the peer, retrying transient
// failures with jittered exponential backoff. Successful calls feed the
// hedge-delay latency window. The returned bytes are the terminal Job
// JSON; an ErrUnavailable return means the peer is down or saturated
// and the caller should steal the work back locally. The originating
// tenant (empty for none) is propagated to the serving peer, so
// per-tenant admission holds fleet-wide.
func (c *Cluster) Compute(ctx context.Context, addr, tenant string, request []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !c.health.Available(addr) {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, ErrUnavailable
		}
		c.health.Begin(addr)
		start := time.Now()
		data, err := c.transport.Compute(ctx, addr, tenant, request)
		// A queue-full answer proves the peer is alive; only failures to
		// answer at all count toward tripping its breaker.
		c.health.End(addr, err != nil && !errors.Is(err, ErrBusy))
		if err == nil {
			c.latency.Observe(time.Since(start))
			return data, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !errors.Is(err, ErrUnavailable) || attempt >= c.cfg.Retries {
			return nil, err
		}
		lastErr = err
		select {
		case <-time.After(Backoff(attempt, c.cfg.RetryBase, c.cfg.RetryMax)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Stats snapshots every peer's health counters for the metrics surface.
func (c *Cluster) Stats() map[string]PeerStats { return c.health.Snapshot() }
