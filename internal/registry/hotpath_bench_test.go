package registry

import (
	"fmt"
	"testing"
	"time"
)

// The hot-path contention benchmarks back the E15 before/after table:
// aggregate throughput of the two reads a metacity-scale client crowd
// actually hammers — the discovery-cache hit and the owner-shard
// registry read — at 32 concurrent callers. Before the S34 rework both
// paths serialized on a process-wide mutex (the cache took a plain
// Mutex per HIT). The cache hit is a lock-free atomic-snapshot read; the
// registry read takes one shard read lock per map it probes.
// BenchmarkRegistryWrite is the other side of the store: its lease churn.

const hotCallers = 32

// hotRegistry builds a populated registry sized like a busy shard.
func hotRegistry(b *testing.B, n int) (*Registry, []string) {
	b.Helper()
	r := New()
	xml, _ := matmulWSDL(b)
	keys := make([]string, n)
	for i := range keys {
		k, err := r.Publish(Entry{Name: fmt.Sprintf("Hot%d", i), WSDL: xml})
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = k
	}
	return r, keys
}

// BenchmarkHotRegistryGet32 is the owner-shard read under 32-way
// concurrency: every caller loops over the key population.
func BenchmarkHotRegistryGet32(b *testing.B) {
	r, keys := hotRegistry(b, 1024)
	b.ReportAllocs()
	b.SetParallelism(hotCallers)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := r.Get(keys[i&1023]); !ok {
				b.Fail()
			}
			i++
		}
	})
}

// BenchmarkHotRegistryFindByName32 is the indexed name lookup under
// 32-way concurrency.
func BenchmarkHotRegistryFindByName32(b *testing.B) {
	r, _ := hotRegistry(b, 1024)
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("Hot%d", i)
	}
	b.ReportAllocs()
	b.SetParallelism(hotCallers)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if es := r.FindByName(names[i&1023]); len(es) != 1 {
				b.Fail()
			}
			i++
		}
	})
}

// BenchmarkRegistryWrite is the store's write mix under lease churn on a
// 10⁴-entry registry: each op publishes a leased entry, renews the one
// published half a window ago and removes the one a full window ago, so
// a window of 256 leased entries under 16 names stays live beside the
// persistent ones.
func BenchmarkRegistryWrite(b *testing.B) {
	r, _ := hotRegistry(b, 10_000)
	xml, _ := matmulWSDL(b)
	const window = 256
	es := make([]Entry, 1024)
	for i := range es {
		es[i] = Entry{Key: fmt.Sprintf("churn%d", i), Name: fmt.Sprintf("Churn%d", i%16), WSDL: xml}
	}
	publish := func(i int) {
		if _, err := r.PublishLeased(es[i&1023], time.Minute); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < window; i++ {
		publish(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := window; i < b.N+window; i++ {
		publish(i)
		if err := r.Renew(es[(i-window/2)&1023].Key); err != nil {
			b.Fatal(err)
		}
		if err := r.Remove(es[(i-window)&1023].Key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotCacheHit32 is the Zipf-hot discovery-cache hit under
// 32-way concurrency: every caller resolves the same popular name —
// the exact access pattern E15's Zipf client population produces.
func BenchmarkHotCacheHit32(b *testing.B) {
	src := &countingLookup{byName: map[string][]Entry{
		"svc": {{Key: "k", Name: "svc"}},
	}}
	c := NewCache(src, time.Hour)
	c.FindByName("svc") // warm
	b.ReportAllocs()
	b.SetParallelism(hotCallers)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if es := c.FindByName("svc"); len(es) != 1 {
				b.Fail()
			}
		}
	})
}

// BenchmarkHotCacheGetHit32 is the keyed cache hit under 32-way
// concurrency.
func BenchmarkHotCacheGetHit32(b *testing.B) {
	src := &countingLookup{entries: map[string]Entry{"k": {Key: "k", Name: "svc"}}}
	c := NewCache(src, time.Hour)
	c.Get("k") // warm
	b.ReportAllocs()
	b.SetParallelism(hotCallers)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := c.Get("k"); !ok {
				b.Fail()
			}
		}
	})
}
