package cluster

import (
	"fmt"
	"strings"
	"testing"
)

func TestNormalizePeers(t *testing.T) {
	got, err := NormalizePeers([]string{" B:2 ", "a:1", "", "b:2", "c:3"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if _, err := NormalizePeers([]string{"a:1"}); err == nil {
		t.Fatal("single-peer list accepted")
	}
	if _, err := NormalizePeers([]string{"a:1", "no-port"}); err == nil {
		t.Fatal("peer without a port accepted")
	}
}

// TestRingDeterministic checks the property routing correctness rests on:
// every node, however its -peers flag was ordered, derives the same
// owner for every key.
func TestRingDeterministic(t *testing.T) {
	a, _ := NormalizePeers([]string{"h1:1", "h2:2", "h3:3"})
	b, _ := NormalizePeers([]string{"h3:3", "h1:1", "h2:2", "h2:2"})
	ra, rb := newRing(a), newRing(b)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if ra.nodes[ra.owner(key)] != rb.nodes[rb.owner(key)] {
			t.Fatalf("key %q: owner %s vs %s", key, ra.nodes[ra.owner(key)], rb.nodes[rb.owner(key)])
		}
	}
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("same membership, different fingerprints")
	}
	if fingerprint(a) == fingerprint(a[:2]) {
		t.Fatal("different membership, same fingerprint")
	}
}

// TestRingBalance checks the virtual nodes spread the keyspace: with 64
// vnodes per node no node should own a wildly disproportionate share.
func TestRingBalance(t *testing.T) {
	nodes, _ := NormalizePeers([]string{"h1:1", "h2:2", "h3:3"})
	r := newRing(nodes)
	counts := make([]int, len(nodes))
	const keys = 9000
	for i := 0; i < keys; i++ {
		counts[r.owner(fmt.Sprintf("key-%d", i))]++
	}
	for i, c := range counts {
		// Fair share is 3000; accept anything within ±60%. The point is
		// catching a broken ring (one node owning ~everything), not
		// enforcing a tight variance bound.
		if c < keys/3*40/100 || c > keys/3*160/100 {
			t.Fatalf("node %s owns %d of %d keys: %v", nodes[i], c, keys, counts)
		}
	}
}

// TestRingSuccessors checks the failover walk: starts at the owner,
// visits every node exactly once, and is stable for a fixed key.
func TestRingSuccessors(t *testing.T) {
	nodes, _ := NormalizePeers([]string{"h1:1", "h2:2", "h3:3", "h4:4"})
	r := newRing(nodes)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		succ := r.successors(key)
		if len(succ) != len(nodes) {
			t.Fatalf("key %q: %d successors, want %d", key, len(succ), len(nodes))
		}
		if succ[0] != r.owner(key) {
			t.Fatalf("key %q: walk starts at %d, owner is %d", key, succ[0], r.owner(key))
		}
		seen := make(map[int]bool)
		for _, n := range succ {
			if seen[n] {
				t.Fatalf("key %q: node %d visited twice: %v", key, n, succ)
			}
			seen[n] = true
		}
	}
}

func TestJobIDNode(t *testing.T) {
	cases := []struct {
		id   string
		node int
		ok   bool
	}{
		{"n0-j000001", 0, true},
		{"n12-j000007", 12, true},
		{"j000001", 0, false}, // pre-cluster ID: no prefix
		{"n-j000001", 0, false},
		{"nx-j000001", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		node, ok := jobIDNode(c.id)
		if ok != c.ok || (ok && node != c.node) {
			t.Errorf("jobIDNode(%q) = %d,%v, want %d,%v", c.id, node, ok, c.node, c.ok)
		}
	}
	if !strings.HasPrefix(nodePrefix(3)+"j000001", "n3-") {
		t.Fatal("nodePrefix format changed")
	}
}
