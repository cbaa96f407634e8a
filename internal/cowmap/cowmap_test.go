package cowmap

import (
	"fmt"
	"sync"
	"testing"
)

// store sets key to v the only way the map's surface allows: evict, then
// create. Not atomic, which the tests below do not need.
func store[V any](m *Map[V], key string, v V) {
	m.Delete(key)
	m.LoadOrCreate(key, func() V { return v })
}

// contents walks every shard the way a reader sees it, overlay over
// snapshot, tombstones hiding snapshot entries.
func contents[V any](m *Map[V]) map[string]V {
	out := map[string]V{}
	for i := range m.shards {
		sh := &m.shards[i]
		op, sp := sh.over.Load(), sh.snap.Load()
		if sp != nil {
			for k, v := range *sp {
				out[k] = v
			}
		}
		if op != nil {
			for k, e := range *op {
				if e.del {
					delete(out, k)
				} else {
					out[k] = e.v
				}
			}
		}
	}
	return out
}

func TestBasicStoreLoadDelete(t *testing.T) {
	m := New[int]()
	if _, ok := m.Load("a"); ok {
		t.Fatal("empty map should miss")
	}
	store(m, "a", 1)
	store(m, "b", 2)
	if v, ok := m.Load("a"); !ok || v != 1 {
		t.Fatalf("a = %d %v", v, ok)
	}
	store(m, "a", 3)
	if v, _ := m.Load("a"); v != 3 {
		t.Fatalf("overwrite: a = %d", v)
	}
	if !m.Delete("a") {
		t.Fatal("delete existing")
	}
	if m.Delete("a") {
		t.Fatal("double delete")
	}
	if _, ok := m.Load("a"); ok {
		t.Fatal("deleted key must miss")
	}
	if v, ok := m.Load("b"); !ok || v != 2 {
		t.Fatalf("b = %d %v", v, ok)
	}
	if n := len(contents(m)); n != 1 {
		t.Fatalf("len = %d", n)
	}
}

// TestOverlayMergeBoundary drives one shard far past overlayMax so every
// write regime — overlay grow, merge, tombstone over snapshot, tombstone
// dropped on merge — is exercised, checking the full contents after each
// write.
func TestOverlayMergeBoundary(t *testing.T) {
	m := New[int]()
	want := map[string]int{}
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	check := func(step string) {
		t.Helper()
		for k, v := range want {
			if got, ok := m.Load(k); !ok || got != v {
				t.Fatalf("%s: %s = %d %v want %d", step, k, got, ok, v)
			}
		}
		if seen := contents(m); len(seen) != len(want) {
			t.Fatalf("%s: shards hold %d entries want %d", step, len(seen), len(want))
		}
	}
	for i := 0; i < 4*overlayMax; i++ {
		store(m, key(i), i)
		want[key(i)] = i
		check(fmt.Sprintf("store %d", i))
	}
	for i := 0; i < 4*overlayMax; i += 3 {
		m.Delete(key(i))
		delete(want, key(i))
		check(fmt.Sprintf("delete %d", i))
	}
	for i := 0; i < 4*overlayMax; i++ {
		store(m, key(i), -i)
		want[key(i)] = -i
		check(fmt.Sprintf("restore %d", i))
	}
}

func TestLoadOrCreate(t *testing.T) {
	m := New[*int]()
	calls := 0
	mk := func() *int { calls++; v := 7; return &v }
	v1, loaded := m.LoadOrCreate("x", mk)
	if loaded || *v1 != 7 || calls != 1 {
		t.Fatalf("first: %v %v calls=%d", v1, loaded, calls)
	}
	v2, loaded := m.LoadOrCreate("x", mk)
	if !loaded || v2 != v1 || calls != 1 {
		t.Fatalf("second: %v %v calls=%d", v2, loaded, calls)
	}
}

func TestDeleteIf(t *testing.T) {
	m := New[int]()
	store(m, "k", 1)
	if m.DeleteIf("k", func(v int) bool { return v == 2 }) {
		t.Fatal("cond false must not delete")
	}
	if !m.DeleteIf("k", func(v int) bool { return v == 1 }) {
		t.Fatal("cond true must delete")
	}
	if m.DeleteIf("k", func(int) bool { return true }) {
		t.Fatal("absent key must not delete")
	}
}

func TestClear(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100; i++ {
		store(m, fmt.Sprintf("k%d", i), i)
	}
	m.Clear()
	if n := len(contents(m)); n != 0 {
		t.Fatalf("len = %d", n)
	}
	if _, ok := m.Load("k1"); ok {
		t.Fatal("cleared key present")
	}
}

// TestConcurrentReadersWriters hammers the map from readers, writers and
// deleters at once; run under -race this is the memory-ordering proof for
// the overlay/snapshot publication protocol.
func TestConcurrentReadersWriters(t *testing.T) {
	m := New[int]()
	const keys = 128
	for i := 0; i < keys; i++ {
		store(m, fmt.Sprintf("k%d", i), i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%d", (i*7+w)%keys)
				switch i % 3 {
				case 0:
					store(m, k, i)
				case 1:
					m.Delete(k)
				case 2:
					m.DeleteIf(k, func(v int) bool { return v%2 == 0 })
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Load(fmt.Sprintf("k%d", (i+r)%keys))
				if i%100 == 0 {
					contents(m)
				}
			}
		}(r)
	}
	for i := 0; i < 50_000; i++ {
		m.LoadOrCreate(fmt.Sprintf("k%d", i%keys), func() int { return i })
		if i%1000 == 0 {
			m.Clear()
		}
	}
	close(stop)
	wg.Wait()
}

// TestWriterNeverHidesOtherKeys pins the invariant the merge-order
// protocol guarantees: a key stored before a burst of writes to OTHER
// keys in the same shard stays visible throughout the burst.
func TestWriterNeverHidesOtherKeys(t *testing.T) {
	m := New[int]()
	store(m, "stable", 42)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			store(m, fmt.Sprintf("x%d", i%1000), i)
		}
	}()
	for i := 0; i < 200_000; i++ {
		if v, ok := m.Load("stable"); !ok || v != 42 {
			t.Errorf("iteration %d: stable = %d %v", i, v, ok)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func BenchmarkLoadHit(b *testing.B) {
	m := New[*int]()
	v := 1
	store(m, "key", &v)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := m.Load("key"); !ok {
				b.Fail()
			}
		}
	})
}

// BenchmarkRefill is the cache's write pair: evict a slot, fill it anew.
func BenchmarkRefill(b *testing.B) {
	m := New[int]()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store(m, keys[i&1023], i)
	}
}
