// Package cluster turns a set of independent odeprotod instances into a
// single logical service: every node runs the same static peer list, and
// a consistent-hash ring over the job's content-address (the SHA-256
// cache key Submit files results under) assigns each key one owner. Any
// node accepts any request; requests for keys it does not own are
// proxied to the owner over pooled persistent connections, so the
// cluster-wide cache, single-flight dedup, and WAL for a given spec all
// live on exactly one node. When an owner is unreachable the request
// retries onto the next live ring successor — the sweep reruns there (a
// cache miss, not an error), and its result is byte-identical because
// sweep output is deterministic in the normalized spec.
//
// Routing is by key, so it needs no membership protocol, no handoff, and
// no proxy hop for owned keys; the price is that the peer list is fixed
// at startup and every node must agree on it (a forwarded request
// carries the sender's ring fingerprint, and a receiver whose ring
// differs rejects it with 502 rather than mis-route silently).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// vnodes is how many ring points each node projects. 64 keeps the
// keyspace split within a few percent of even for small clusters while
// the ring stays tiny (a 16-node ring is 1024 points).
const vnodes = 64

// NormalizePeers canonicalizes a peer list: trimmed, lowercased,
// de-duplicated, sorted. Every node must derive the same normalized list
// (node indexes, job-ID prefixes, and the ring fingerprint all key off
// positions in it), which is why normalization lives here and not in
// flag parsing.
func NormalizePeers(peers []string) ([]string, error) {
	seen := make(map[string]bool, len(peers))
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		p = strings.ToLower(strings.TrimSpace(p))
		if p == "" {
			continue
		}
		if !strings.Contains(p, ":") {
			return nil, fmt.Errorf("cluster: peer %q is not host:port", p)
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 peers (self included), got %d", len(out))
	}
	sort.Strings(out)
	return out, nil
}

// ring is a consistent-hash ring: each node contributes vnodes points,
// a key is owned by the first point clockwise from its hash.
type ring struct {
	nodes  []string // normalized peer list; point.node indexes into it
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node int
}

// hash64 is the ring's point/key hash: the first 8 bytes of SHA-256.
// Job keys are already SHA-256 hex, but hashing the hex again costs
// nothing measurable and lets vnode labels share the same map.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds the ring over an already-normalized peer list.
func newRing(nodes []string) *ring {
	r := &ring{nodes: nodes, points: make([]ringPoint, 0, len(nodes)*vnodes)}
	for ni, n := range nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "#" + strconv.Itoa(v)), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// owner returns the index of the node owning key.
func (r *ring) owner(key string) int {
	return r.points[r.firstPoint(key)].node
}

// successors returns every node index in ring order starting at key's
// owner, each node once. Retrying a failed forward walks this list, so
// the same key always fails over to the same substitute node — which is
// what keeps single-flight dedup effective even during an outage.
func (r *ring) successors(key string) []int {
	out := make([]int, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	start := r.firstPoint(key)
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		n := r.points[(start+i)%len(r.points)].node
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// firstPoint locates the first ring point at or clockwise of key's hash.
func (r *ring) firstPoint(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrapped past the highest point
	}
	return i
}

// fingerprint condenses the ring topology to a short comparable token.
// Forwarded requests carry it; a mismatch means the nodes were started
// with different -peers lists (or vnodes) and must not route for each
// other.
func fingerprint(nodes []string) string {
	sum := sha256.Sum256([]byte(strconv.Itoa(vnodes) + "|" + strings.Join(nodes, ",")))
	return fmt.Sprintf("%x", sum[:8])
}
