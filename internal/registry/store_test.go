package registry

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRegistryWriteAllocs bounds the store's write path on a 10⁴-entry
// registry. Writes land in place in their shard, so a renew costs the
// replacement record and nothing else, and a publish+remove of a fresh
// key costs its record and name-index row, not a copy of any map. The
// race build counts the same allocations, so this runs under -race too.
func TestRegistryWriteAllocs(t *testing.T) {
	now := time.Unix(5000, 0)
	r := NewWithClock(func() time.Time { return now })
	xml, _ := matmulWSDL(t)
	for i := 0; i < 10_000; i++ {
		e := Entry{Key: fmt.Sprintf("k%d", i), Name: fmt.Sprintf("S%d", i%100), WSDL: xml}
		if _, err := r.PublishLeased(e, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	renew := testing.AllocsPerRun(200, func() {
		if err := r.Renew("k4242"); err != nil {
			t.Fatal(err)
		}
	})
	fresh := Entry{Key: "fresh", Name: "Fresh", WSDL: xml}
	churn := testing.AllocsPerRun(200, func() {
		if _, err := r.PublishLeased(fresh, time.Hour); err != nil {
			t.Fatal(err)
		}
		if err := r.Remove("fresh"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs: renew %.0f, publish+remove %.0f", renew, churn)
	if renew > 1 {
		t.Errorf("renew: %.0f allocs, want <= 1", renew)
	}
	if churn > 6 {
		t.Errorf("publish+remove: %.0f allocs, want <= 6", churn)
	}
}

// TestRegistryReadsNeverMissDuringWrites is the store's read-during-write
// check (run it under -race): readers loop Get, FindByName and Len over
// a stable set of persistent entries while writers publish, renew and
// remove leased entries under the same names and the clock runs the lease
// sweep. A stable entry must never read as missing, and its name-index
// row must never lose it while other keys come and go beside it.
func TestRegistryReadsNeverMissDuringWrites(t *testing.T) {
	clk := &steppedClock{now: time.Unix(5000, 0)}
	r := NewWithClock(clk.Now)
	xml, _ := matmulWSDL(t)
	const stable = 16
	for i := 0; i < stable; i++ {
		if _, err := r.Publish(Entry{Key: fmt.Sprintf("stable%d", i), Name: fmt.Sprintf("S%d", i), WSDL: xml}); err != nil {
			t.Fatal(err)
		}
	}
	expired0 := r.met.expired.Value()
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			// Each key is published, re-published and renewed; every
			// other one is then removed, the rest left to lapse and be
			// swept before the key comes round again.
			for i := 0; !stop.Load(); i++ {
				k := i / 4
				key := fmt.Sprintf("w%d-%d", w, k%64)
				name := fmt.Sprintf("S%d", k%stable)
				switch i % 4 {
				case 0, 1:
					if _, err := r.PublishLeased(Entry{Key: key, Name: name, WSDL: xml}, time.Second); err != nil {
						t.Error(err)
						return
					}
				case 2:
					_ = r.Renew(key) // may have lapsed: the clock is shared
				case 3:
					if k%2 == 0 {
						_ = r.Remove(key)
					}
				}
				if w == 0 && i%16 == 0 {
					clk.Advance(100 * time.Millisecond) // leases lapse, sweeps run
				}
			}
		}(w)
	}
	for rd := 0; rd < 2; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; n < 20_000 && !t.Failed(); n++ {
				i := n % stable
				key, name := fmt.Sprintf("stable%d", i), fmt.Sprintf("S%d", i)
				if _, ok := r.Get(key); !ok {
					t.Errorf("Get(%s) missed during writes", key)
				}
				es := r.FindByName(name)
				if !slices.ContainsFunc(es, func(e Entry) bool { return e.Key == key }) {
					t.Errorf("FindByName(%s) lost %s during writes: %d entries", name, key, len(es))
				}
				if n%64 == 0 && r.Len() < stable {
					t.Errorf("Len() = %d during writes, want at least %d", r.Len(), stable)
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	if r.met.expired.Value() == expired0 {
		t.Error("the lease sweep never reclaimed an entry")
	}
}
