package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"tels/internal/blif"
)

// Digest returns the content address of a normalized request: the SHA-256
// of the canonicalized BLIF (parsed and re-emitted, so whitespace, cube
// order within a line, and comments don't fragment the cache) together
// with a fixed-order encoding of every synthesis knob that can change the
// output. Identical digests always yield identical threshold networks.
// The canonical text keeps the file's definition order, because the
// optimization scripts, and so the results, depend on it.
func Digest(req Request) (string, error) {
	nc, err := blif.ParseCoreString(req.BLIF)
	if err != nil {
		return "", fmt.Errorf("service: parse blif: %w", err)
	}
	var sb strings.Builder
	if err := blif.WriteCore(&sb, nc); err != nil {
		return "", fmt.Errorf("service: canonicalize blif: %w", err)
	}
	canon := sb.String()
	h := sha256.New()
	o := req.Options
	fmt.Fprintf(h, "tels/v1\nscript=%s\nmapper=%s\nverify=%t\n", req.Script, req.Mapper, !req.SkipVerify)
	fmt.Fprintf(h, "fanin=%d\ndon=%d\ndoff=%d\nseed=%d\nmaxw=%d\nnocollapse=%t\nnotheorem2=%t\nsplit=%d\n",
		o.Fanin, o.DeltaOn, o.DeltaOff, o.Seed, o.MaxWeight, o.NoCollapse, o.NoTheorem2, o.Split)
	// Per-node margin overrides, in sorted order. Only written when
	// present so pre-override digests stay stable.
	if len(o.DeltaOnOverrides) > 0 {
		names := make([]string, 0, len(o.DeltaOnOverrides))
		for name := range o.DeltaOnOverrides {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "donover.%s=%d\n", name, o.DeltaOnOverrides[name])
		}
	}
	// Analysis jobs fold their knobs into the address; plain synth
	// requests keep the original encoding so their digests are stable
	// across these additions.
	if req.Kind == "yield" || req.Kind == "sweep" || req.Kind == "resyn" {
		y := req.Yield
		fmt.Fprintf(h, "kind=%s\nymodel=%s\nyv=%g\nyp=%g\nymax=%d\nyhw=%g\nyseed=%d\n",
			req.Kind, y.Model, y.V, y.P, y.MaxTrials, y.HalfWidth, y.Seed)
	}
	if req.Kind == "resyn" {
		rs := req.Resyn
		fmt.Fprintf(h, "rtopk=%d\nrstep=%d\nrmaxdon=%d\nriters=%d\nrtarget=%g\nrbudget=%d\n",
			rs.TopK, rs.DeltaStep, rs.MaxDeltaOn, rs.MaxIters, rs.TargetYield, rs.AreaBudget)
	}
	// A sweep job's own digest covers its grid. Its results are NOT
	// cached under this address: every point is cached individually under
	// the digest of the equivalent standalone yield request (synth knobs +
	// point key), so a re-run with one new grid point hits the cache on
	// every old point and shares entries with standalone yield jobs.
	if req.Kind == "sweep" {
		s := req.Sweep
		fmt.Fprintf(h, "svs=%v\nsdons=%v\nsmodels=%v\n", s.Vs, s.DeltaOns, s.Models)
	}
	fmt.Fprintf(h, "blif=%s", canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Cache is a bounded LRU map from request digest to synthesis result.
// It is pure storage: hit/miss accounting lives in Metrics, where the
// manager can also credit results served by coalescing with an in-flight
// run of the same digest.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	res Result
}

// DefaultCacheEntries bounds the cache when the configuration leaves it 0.
const DefaultCacheEntries = 256

// NewCache returns a cache holding at most capacity results
// (DefaultCacheEntries if capacity ≤ 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached result for the digest, marking it most recently
// used.
func (c *Cache) Get(key string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return Result{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores the result under the digest and returns how many entries
// were evicted to make room.
func (c *Cache) Put(key string, res Result) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return 0
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	evicted := 0
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// Len reports the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
