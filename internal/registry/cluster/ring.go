// Package cluster turns N registry processes into one logical lookup
// plane (S31): entries are sharded across peers by a consistent-hash
// vnode ring keyed by the entry's service name, replicated with their
// lease deadline to R ring successors, and found again by routing each
// operation to the shard group that can own it. Peer liveness comes from
// a SWIM-flavoured gossip membership (suspect/dead states), and a ring
// change triggers deterministic entry handoff so no registration is lost
// or double-owned across joins and failures.
//
// The paper's registry/lookup framework is the front door to every
// HARNESS II service; this package removes its single-server bottleneck
// — the centralized-lookup wall JClarens reports killing grid
// web-service deployments — while keeping the client surface
// (registry.Lookup, registry.LeaseHolder) unchanged.
package cluster

import (
	"slices"
	"sort"
)

// DefaultVNodes is the per-peer virtual-node count. 64 points per peer
// keeps the expected ownership imbalance of a small cluster under ~15%
// while the ring stays a few KiB.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring: a sorted circle of vnode
// points, each owned by one peer ID. Lookups walk clockwise from the
// key's hash collecting distinct peers, so every key has a stable owner
// list that changes only for keys whose arcs a membership change moved —
// the property that bounds rebalance cost to the data actually moving.
type Ring struct {
	points []ringPoint
	peers  []string // sorted distinct peer IDs
}

type ringPoint struct {
	hash uint64
	peer int // index into peers
}

// fnv64a hashes s with 64-bit FNV-1a; the ring needs speed and spread,
// not cryptographic strength.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the 64-bit murmur3 finalizer: a full-avalanche scramble that
// keeps similar inputs from clustering on the ring.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// vnodeHash spreads one peer's vnodes by striding the peer's hash with
// the golden ratio before a full finalizer mix, so neighbouring indices
// land far apart.
func vnodeHash(peer string, i int) uint64 {
	return mix64(fnv64a(peer) + uint64(i)*0x9e3779b97f4a7c15)
}

// BuildRing constructs a ring over the given peer IDs with vnodes points
// per peer. The input order is irrelevant (IDs are sorted and deduped),
// so every node that knows the same membership computes the same ring —
// the coordination-free agreement the replication scheme relies on.
// An empty peer set yields an empty ring whose lookups return nil.
func BuildRing(peerIDs []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	peers := append([]string(nil), peerIDs...)
	sort.Strings(peers)
	peers = dedupSorted(peers)
	r := &Ring{peers: peers}
	if len(peers) == 0 {
		return r
	}
	r.points = make([]ringPoint, 0, len(peers)*vnodes)
	for pi, p := range peers {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(p, i), peer: pi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Tie-break identical hash points by peer index so the walk
		// order — and therefore ownership — is independent of input
		// order even under vnode hash collisions.
		return a.peer < b.peer
	})
	return r
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Peers returns the ring's member IDs (sorted).
func (r *Ring) Peers() []string { return r.peers }

// Len returns the number of member peers.
func (r *Ring) Len() int { return len(r.peers) }

// Owners returns the n distinct peers responsible for key, walking
// clockwise from the key's hash: the first is the primary owner, the
// rest its replication successors. Fewer than n peers in the ring means
// every peer is an owner. An empty ring returns nil.
func (r *Ring) Owners(key string, n int) []string {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	h := fnv64a(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		// n is the replication factor, so scanning the peers collected
		// so far beats a set.
		if id := r.peers[r.points[(idx+i)%len(r.points)].peer]; !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// Owner returns the primary owner of key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	o := r.Owners(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

// IsOwner reports whether peer is among key's n owners.
func (r *Ring) IsOwner(key, peer string, n int) bool {
	return slices.Contains(r.Owners(key, n), peer)
}

// Plan describes the handoff one ring transition demands for a single
// key: which peers must newly receive the entry and which peers may drop
// their copy. Applying it — (oldOwners \ Drops) ∪ Adds — yields exactly
// the new owner set, the no-loss/no-double-ownership invariant the fuzz
// target proves for arbitrary peer-set deltas.
type Plan struct {
	Adds  []string // new owners that were not owners before
	Drops []string // old owners that no longer own the key
}

// PlanMove computes the handoff plan for key when the ring moves from
// old to next with the given replication factor.
func PlanMove(old, next *Ring, key string, replicas int) Plan {
	oldOwners := old.Owners(key, replicas)
	newOwners := next.Owners(key, replicas)
	var pl Plan
	for _, p := range newOwners {
		if !slices.Contains(oldOwners, p) {
			pl.Adds = append(pl.Adds, p)
		}
	}
	for _, p := range oldOwners {
		if !slices.Contains(newOwners, p) {
			pl.Drops = append(pl.Drops, p)
		}
	}
	return pl
}

// RingKey maps an entry key or service name to its ring key. Cluster-
// assigned entry keys embed the service name before the "::" separator,
// so an entry and its name always land on the same shard group and a
// keyed operation (get, renew, remove) is routable without a directory.
// Keys without the separator (e.g. seeded or caller-chosen keys) hash as
// themselves.
func RingKey(keyOrName string) string {
	for i := 0; i+1 < len(keyOrName); i++ {
		if keyOrName[i] == ':' && keyOrName[i+1] == ':' {
			return keyOrName[:i]
		}
	}
	return keyOrName
}
