// Package cowmap provides a sharded, copy-on-write string-keyed map
// whose read path is lock-free and allocation-free. It backs the
// discovery cache (registry.Cache), whose traffic is what copy-on-write
// suits: hot keys read over and over by every caller, with rare fills
// and evictions.
//
//   - Keys hash (FNV-1a) onto one of 64 shards, so unrelated writers
//     never contend and a snapshot rebuild copies 1/64th of the map.
//   - Each shard publishes an immutable snapshot map through an
//     atomic.Pointer. Readers load the pointer and probe the map —
//     two atomic loads, no locks, no allocation, no writes to shared
//     cachelines.
//   - Writers serialize per shard on a mutex and publish either a new
//     small overlay (recent writes, checked by readers before the
//     snapshot) or — once the overlay outgrows overlayMax — a merged
//     snapshot. Every write therefore copies the overlay and every
//     overlayMax-th one the shard: cheap for a cache's fills, too dear
//     for a store whose entries churn (the registry's own maps are
//     written in place under per-shard read/write locks instead).
//
// Memory ordering: writers publish a merged snapshot BEFORE clearing the
// overlay, and readers consult the overlay BEFORE the snapshot; with Go's
// sequentially-consistent atomics a reader that misses the overlay is
// guaranteed to see the merged snapshot, so no write is ever invisible.
//
// Values should be pointers or small headers: they are copied on merge.
package cowmap

import (
	"sync"
	"sync/atomic"
)

// shardCount is the fixed shard fan-out (power of two). 64 shards keep
// worst-case snapshot rebuilds at ~1.6% of the population.
const shardCount = 64

// overlayMax bounds the per-shard overlay before it is merged into the
// snapshot. Writes copy the overlay (≤ overlayMax entries) and merge
// every overlayMax-th write copies the shard snapshot, so the amortized
// per-write cost is O(overlayMax + shard/overlayMax).
const overlayMax = 32

// Map is a sharded copy-on-write map from string keys to V. The zero
// value is NOT ready to use; call New. All methods are safe for
// concurrent use.
type Map[V any] struct {
	shards [shardCount]shard[V]
}

// overEntry is one overlay record: a pending value or a tombstone
// shadowing a snapshot entry.
type overEntry[V any] struct {
	v   V
	del bool
}

// shard is one lock-free-readable partition. Padded so neighbouring
// shards' write locks do not share a cacheline.
type shard[V any] struct {
	mu   sync.Mutex
	snap atomic.Pointer[map[string]V]            // immutable once published
	over atomic.Pointer[map[string]overEntry[V]] // immutable once published; nil = empty
	_    [64 - 8 - 16]byte
}

// New returns an empty map.
func New[V any]() *Map[V] {
	return &Map[V]{}
}

// Hash is FNV-1a of s, computed without allocating: the shard pick of
// this map and of the registry store's sharded maps.
func Hash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (m *Map[V]) shard(key string) *shard[V] {
	return &m.shards[Hash(key)&(shardCount-1)]
}

// Load returns the value stored under key. The read path is two atomic
// pointer loads and at most two map probes: no locks, no allocation.
func (m *Map[V]) Load(key string) (V, bool) {
	return m.shard(key).load(key)
}

// load reads the shard's overlay, then its snapshot. Writers call it
// under sh.mu for a read-modify-write.
func (sh *shard[V]) load(key string) (V, bool) {
	if op := sh.over.Load(); op != nil {
		if e, ok := (*op)[key]; ok {
			if e.del {
				var zero V
				return zero, false
			}
			return e.v, true
		}
	}
	if sp := sh.snap.Load(); sp != nil {
		v, ok := (*sp)[key]
		return v, ok
	}
	var zero V
	return zero, false
}

// publish applies one overlay entry under sh.mu: it either publishes a
// grown overlay copy or, past overlayMax, merges overlay+entry into a
// fresh snapshot (stored BEFORE the overlay is cleared — see the package
// comment for why that order keeps readers consistent).
func (sh *shard[V]) publish(key string, e overEntry[V]) {
	old := sh.over.Load()
	if old == nil && e.del {
		// Deleting a key that has no overlay shadow and no snapshot
		// presence needs no tombstone.
		if sp := sh.snap.Load(); sp == nil {
			return
		} else if _, ok := (*sp)[key]; !ok {
			return
		}
	}
	n := 1
	if old != nil {
		n += len(*old)
	}
	if n <= overlayMax {
		next := make(map[string]overEntry[V], n)
		if old != nil {
			for k, v := range *old {
				next[k] = v
			}
		}
		next[key] = e
		sh.over.Store(&next)
		return
	}
	// Merge: copy the snapshot, apply the overlay plus the new entry.
	var base map[string]V
	if sp := sh.snap.Load(); sp != nil {
		base = *sp
	}
	merged := make(map[string]V, len(base)+n)
	for k, v := range base {
		merged[k] = v
	}
	apply := func(k string, oe overEntry[V]) {
		if oe.del {
			delete(merged, k)
		} else {
			merged[k] = oe.v
		}
	}
	if old != nil {
		for k, oe := range *old {
			apply(k, oe)
		}
	}
	apply(key, e)
	sh.snap.Store(&merged)
	sh.over.Store(nil)
}

// Delete removes key, reporting whether it was present.
func (m *Map[V]) Delete(key string) bool {
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.load(key); !ok {
		return false
	}
	sh.publish(key, overEntry[V]{del: true})
	return true
}

// DeleteIf removes key when cond holds for the current value, reporting
// whether a removal happened. Used for eviction races: "delete this
// cache slot only if it is still the one I found expired".
func (m *Map[V]) DeleteIf(key string, cond func(V) bool) bool {
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.load(key)
	if !ok || !cond(v) {
		return false
	}
	sh.publish(key, overEntry[V]{del: true})
	return true
}

// LoadOrCreate returns the value under key, creating it with mk (called
// at most once, under the shard lock) when absent. loaded reports
// whether the value already existed. The hit path is lock-free.
func (m *Map[V]) LoadOrCreate(key string, mk func() V) (v V, loaded bool) {
	sh := m.shard(key)
	if v, ok := sh.load(key); ok {
		return v, true
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.load(key); ok {
		return v, true
	}
	v = mk()
	sh.publish(key, overEntry[V]{v: v})
	return v, false
}

// Clear empties the map, one shard swap at a time.
func (m *Map[V]) Clear() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.snap.Store(nil)
		sh.over.Store(nil)
		sh.mu.Unlock()
	}
}
