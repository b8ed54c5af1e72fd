// Package ring is a consistent-hash ring with virtual nodes: the
// key-ownership substrate of the rolagd cluster. Every shard is placed
// on the ring at DefaultVNodes pseudo-random points derived from its
// name, a key is owned by the first shard clockwise from the key's
// point, and adding or removing one shard moves only the keys in the
// arcs that shard gains or loses (~1/N of the keyspace), never keys
// between two surviving shards.
//
// The ring is deterministic: two processes that Add the same shard
// names compute identical ownership for every key. That property is
// load-bearing — the router and every rolagd replica each build their
// own ring from the shared -peers flag and must agree on which shard is
// "home" for a cache key without any coordination — so the
// virtual-node count is a constant, not a setting two processes could
// disagree on.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per shard. 128 points keeps
// the keyspace skew across 3 shards under ~10% (see TestDistribution)
// while the ring stays small enough that Owner is a binary search over
// a few hundred entries.
const DefaultVNodes = 128

// Ring is a consistent-hash ring. Not safe for concurrent mutation;
// Owner/Successors are safe to call concurrently as long as no
// Add/Remove runs at the same time (cluster membership is fixed at
// startup today, so callers simply build the ring before serving).
type Ring struct {
	vnodes int
	points []point  // sorted by hash
	shards []string // sorted member names
}

type point struct {
	hash  uint64
	shard string
}

// New returns an empty ring with DefaultVNodes points per shard.
func New() *Ring { return newRing(DefaultVNodes) }

// newRing returns an empty ring with vnodes points per shard.
func newRing(vnodes int) *Ring { return &Ring{vnodes: vnodes} }

// hash64 maps a string to a ring position. SHA-256 (truncated) rather
// than a fast non-cryptographic hash: ring placement runs only at
// startup and on membership changes, and SHA-256's distribution is
// what keeps per-shard keyspace shares tight.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add places shard on the ring at vnodes points. Adding a present
// shard is a no-op.
func (r *Ring) Add(shard string) {
	for _, s := range r.shards {
		if s == shard {
			return
		}
	}
	r.shards = append(r.shards, shard)
	sort.Strings(r.shards)
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", shard, i)), shard: shard})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Shards returns the member names in sorted order. The slice is shared;
// callers must not mutate it.
func (r *Ring) Shards() []string { return r.shards }

// Len returns the number of member shards.
func (r *Ring) Len() int { return len(r.shards) }

// Owner returns the shard that owns key: the first shard clockwise
// from the key's ring position. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].shard
}

// Successors returns up to n distinct shards in ring order starting at
// the key's owner. The second entry is the failover target when the
// owner is down, and so on. n > Len() is clamped.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, idx := 0, r.search(key); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(idx+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// search returns the index of the first ring point at or clockwise
// from the key's position.
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
