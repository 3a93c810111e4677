// Package cluster is the dispatch substrate for a fleet of telsd peers
// behind one content-addressed cache: a static consistent-hash ring with
// virtual nodes maps job digests to owner peers, a per-peer health
// breaker keeps dead or saturated peers out of the request path, a
// latency tracker derives the hedge delay for straggler requests, and a
// small HTTP transport speaks the daemon's /v1/cluster/* endpoints.
//
// The package is deliberately service-agnostic: it moves opaque JSON
// bytes keyed by SHA-256 digests. internal/service owns the dispatch
// policy (remote cache-fill before local compute, sweep fan-out to
// owner peers, hedged requests, stealing work back locally) and the
// wire shapes on both ends.
//
// v1 is gossip-free: every peer is started with the same -peers list
// and the same -self identity, so all rings agree on ownership without
// any membership protocol. A dead peer is handled by the health breaker
// (its keys are computed locally by whoever needs them), not by ring
// mutation — consistent hashing only matters again when the operator
// changes the static list and restarts the fleet, at which point only
// the removed peer's share of the key space moves.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// vnodes is the number of virtual nodes per peer. 64 points per peer
// keeps the maximum per-peer share within a few percent of uniform for
// small fleets.
const vnodes = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a peer.
type ringPoint struct {
	hash uint64
	peer string
}

// Ring is an immutable consistent-hash ring over a static peer list.
// Every peer in a fleet builds the same ring from the same list, so
// Owner is a pure function of the digest that all peers agree on.
type Ring struct {
	self   string
	peers  []string    // sorted, distinct
	points []ringPoint // sorted by hash
}

// hash64 maps a string to a position on the circle: the first 8 bytes
// of its SHA-256, big-endian. SHA-256 keeps vnode placement and key
// lookup identical across architectures and Go versions (fnv would too,
// but the digests being placed are already SHA-256 hex — reusing the
// same primitive keeps the whole addressing story one hash function).
func hash64(s string) uint64 {
	h := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(h[:8])
}

// NewRing builds the ring. self must be one of peers; peers must be
// non-empty, distinct, non-blank strings.
func NewRing(self string, peers []string) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	seen := make(map[string]bool, len(sorted))
	for _, p := range sorted {
		if p == "" {
			return nil, fmt.Errorf("cluster: blank peer address")
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
	}
	if !seen[self] {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", self, sorted)
	}
	r := &Ring{
		self:   self,
		peers:  sorted,
		points: make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for _, p := range sorted {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(p + "#" + strconv.Itoa(i)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.peer < b.peer // total order even on (astronomically unlikely) hash ties
	})
	return r, nil
}

// Owner returns the peer owning the key: the first virtual node at or
// clockwise after the key's position on the circle.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].peer
}

// Self returns this peer's own address.
func (r *Ring) Self() string { return r.self }

// Size returns the number of peers on the ring.
func (r *Ring) Size() int { return len(r.peers) }
