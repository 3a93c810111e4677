package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"
)

func digestFor(i int) string {
	h := sha256.Sum256([]byte("key-" + strconv.Itoa(i)))
	return hex.EncodeToString(h[:])
}

func TestNewRingValidation(t *testing.T) {
	cases := []struct {
		name  string
		self  string
		peers []string
	}{
		{"empty", "a", nil},
		{"blank peer", "a", []string{"a", ""}},
		{"duplicate", "a", []string{"a", "a"}},
		{"self missing", "c", []string{"a", "b"}},
	}
	for _, tc := range cases {
		if _, err := NewRing(tc.self, tc.peers); err == nil {
			t.Errorf("%s: NewRing accepted invalid input", tc.name)
		}
	}
	if _, err := NewRing("a", []string{"a"}); err != nil {
		t.Fatalf("single-peer ring rejected: %v", err)
	}
}

func TestRingOwnerAgreesAcrossPeers(t *testing.T) {
	peers := []string{"h1:1", "h2:2", "h3:3"}
	rings := make([]*Ring, len(peers))
	for i, p := range peers {
		r, err := NewRing(p, peers)
		if err != nil {
			t.Fatal(err)
		}
		rings[i] = r
	}
	for i := 0; i < 200; i++ {
		d := digestFor(i)
		want := rings[0].Owner(d)
		for _, r := range rings[1:] {
			if got := r.Owner(d); got != want {
				t.Fatalf("rings disagree on %s: %s vs %s", d, want, got)
			}
		}
	}
}

func TestRingDistribution(t *testing.T) {
	peers := []string{"h1:1", "h2:2", "h3:3", "h4:4"}
	r, err := NewRing(peers[0], peers)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[r.Owner(digestFor(i))]++
	}
	// With 64 vnodes a 4-peer ring should keep every share within a
	// factor of two of uniform; this is a sanity bound, not a tight one.
	for _, p := range peers {
		share := float64(counts[p]) / n
		if share < 0.125 || share > 0.50 {
			t.Errorf("peer %s owns %.1f%% of keys (counts=%v)", p, 100*share, counts)
		}
	}
}

// TestRingRebalanceOnRemoval pins the consistent-hashing contract: when
// a peer leaves the static list (the fleet restarts with a shorter -peers
// list), only keys it owned change owner — everything else stays put, so
// the surviving peers' caches stay warm.
func TestRingRebalanceOnRemoval(t *testing.T) {
	before, err := NewRing("h1:1", []string{"h1:1", "h2:2", "h3:3", "h4:4"})
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing("h1:1", []string{"h1:1", "h2:2", "h4:4"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != 3 {
		t.Fatalf("Size after removal = %d, want 3", after.Size())
	}

	const n = 2000
	moved, owned := 0, 0
	for i := 0; i < n; i++ {
		d := digestFor(i)
		was, now := before.Owner(d), after.Owner(d)
		if was == "h3:3" {
			owned++
			if now == "h3:3" {
				t.Fatalf("removed peer still owns %s", d)
			}
			continue
		}
		if was != now {
			moved++
			t.Errorf("key %s moved %s -> %s despite its owner surviving", d, was, now)
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys owned by surviving peers moved", moved)
	}
	if owned == 0 {
		t.Fatal("test vacuous: removed peer owned no sampled keys")
	}
}
