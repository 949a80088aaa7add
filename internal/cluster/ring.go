// Package cluster is the sharded serving tier: a router that consistent-
// hashes adapter keys ("task/dataset") onto a ring of `knowtrans serve`
// backends, with bounded replication, health-checked membership, request
// hedging, and retry-with-failover. The Router implements serve.Resolver,
// so the same HTTP surface (serve.Server) fronts one local registry or a
// whole fleet — local and remote resolution are one code path.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes: each backend owns
// VNodes points on a 64-bit circle, and a key's owners are the first N
// distinct backends clockwise from the key's hash. Adding or removing one
// backend only moves the keys that hashed to its points — everyone else's
// placement is undisturbed, which is what keeps a backend death from
// stampeding every adapter cache in the fleet.
type Ring struct {
	points   []ringPoint
	backends []string
}

type ringPoint struct {
	hash    uint64
	backend int // index into backends
}

// NewRing builds a ring over backends with vnodes points each. Backend order
// is irrelevant: placement depends only on the backend strings themselves.
func NewRing(backends []string, vnodes int) *Ring {
	r := &Ring{backends: append([]string(nil), backends...)}
	r.points = make([]ringPoint, 0, len(backends)*vnodes)
	for i, b := range r.backends {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", b, v)), backend: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].backend < r.points[b].backend
	})
	return r
}

// Owners returns the first n distinct backends clockwise from key's hash —
// the primary first, then its replicas in takeover order. n is clamped to
// the backend count.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.backends) {
		n = len(r.backends)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			owners = append(owners, r.backends[p.backend])
		}
	}
	return owners
}

// hash64 is FNV-1a finished with murmur3's 64-bit mixer: fast,
// dependency-free, and stable across processes — router restarts and every
// router replica agree on placement. The finalizer matters: bare FNV-1a
// barely avalanches the last input bytes into the high bits, so the
// near-sequential keys real datasets produce ("EM/dataset-17", "-18", ...)
// would cluster on one arc of the circle instead of spreading.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
