// Package cluster turns peiserved into a sharded multi-node service:
// a coordinator consistent-hashes pei.JobSpec digests across registered
// workers (digest-affinity routing, so result-cache and warm-start
// snapshot locality follow the job), health-checks the members,
// re-routes a failed worker's hash range to its ring successor, serves
// peer-aware cache lookups so a result computed anywhere is a hit
// everywhere, and aggregates per-worker queue depth into cluster-wide
// backpressure. cmd/peiserved wires both sides: `-coordinator` runs the
// Coordinator, `-join`/`-advertise` run a worker with a Client.
//
// The package is deliberately decoupled from the simulator: it may not
// import internal/sim or internal/machine (enforced by the clustersafe
// peilint analyzer) — serving topology knows about digests and HTTP,
// never about events or machines.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ringReplicas is the number of virtual points each member contributes
// to the ring. 64 keeps the per-member load spread within a few percent
// for small clusters while keeping rebuilds trivially cheap.
const ringReplicas = 64

// Ring is an immutable consistent-hash ring over member names. Keys
// (job digests) map to the first ring point clockwise from the key's
// hash; removing a member moves only the keys it owned (to their
// successors), which is exactly the failover property digest-affinity
// routing needs: a worker crash re-routes its hash range without
// reshuffling everyone else's cache locality.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over the given member names. Membership changes
// rebuild the ring; assignment is a pure function of the member-name
// set, so every node (and every test) computes the same owner for a
// digest.
func NewRing(members []string) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(members)*ringReplicas)}
	for _, m := range members {
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", m, i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash collisions between distinct members are vanishingly rare
		// but must still order deterministically.
		return a.member < b.member
	})
	return r
}

// ringHash is the ring's stable hash: the first 8 bytes of SHA-256,
// big-endian. SHA-256 keeps point placement uniform and — unlike
// maphash — identical across processes and releases, which the
// deterministic-assignment guarantee depends on.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Len returns the number of members on the ring.
func (r *Ring) Len() int { return len(r.points) / ringReplicas }

// Owner returns the member owning key: the first point at or clockwise
// after the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring's first point succeeds the last hash
	}
	return r.points[i].member, true
}

// Successors returns up to n distinct members in ring order starting at
// key's owner. Index 0 is the owner; the rest are the failover order a
// coordinator walks when the owner rejects or dies mid-submit.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
