package registry

import (
	"sync"

	"harness2/internal/cowmap"
)

// shardCount is the store's fixed shard fan-out (a power of two).
const shardCount = 64

// shardMap is the store's string-keyed map: 64 plain maps, each under
// its own read/write lock, picked by the key's cowmap.Hash. Writers assign
// and delete in place under the shard's write lock; readers take only its
// read lock, so a keyed read allocates nothing and unrelated keys rarely
// share a lock. The zero value is ready to use.
type shardMap[V any] struct {
	shards [shardCount]mapShard[V]
}

// mapShard is one partition, padded to a cacheline so neighbouring
// shards' locks do not false-share.
type mapShard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
	_  [64 - 24 - 8]byte
}

func (sm *shardMap[V]) shard(key string) *mapShard[V] {
	return &sm.shards[cowmap.Hash(key)&(shardCount-1)]
}

func (sm *shardMap[V]) load(key string) (V, bool) {
	sh := sm.shard(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

func (sm *shardMap[V]) store(key string, v V) {
	sh := sm.shard(key)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]V)
	}
	sh.m[key] = v
	sh.mu.Unlock()
}

// delete removes key, reporting whether it was present.
func (sm *shardMap[V]) delete(key string) bool {
	sh := sm.shard(key)
	sh.mu.Lock()
	_, ok := sh.m[key]
	delete(sh.m, key)
	sh.mu.Unlock()
	return ok
}

// each calls f for every entry until f returns false, one shard at a
// time under that shard's read lock: f must not write the map. Entries
// written while each runs may or may not be seen.
func (sm *shardMap[V]) each(f func(key string, v V) bool) {
	for i := range sm.shards {
		if !sm.shards[i].each(f) {
			return
		}
	}
}

func (sh *mapShard[V]) each(f func(key string, v V) bool) bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for k, v := range sh.m {
		if !f(k, v) {
			return false
		}
	}
	return true
}
