package registry

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"harness2/internal/resilience/chaos"
)

// chaosRemote builds a registry server plus a Remote whose endpoint is
// chaos-injected with the given spec.
func chaosRemote(t *testing.T, spec string) (*Registry, *Remote) {
	t.Helper()
	reg := New()
	srv := httptest.NewServer(NewServer(reg))
	t.Cleanup(srv.Close)
	inj, err := chaos.NewFromSpec(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	rem := NewRemote(srv.URL)
	rem.Chaos = inj
	return reg, rem
}

// TestRemoteGetDistinguishesOutageFromMiss is the regression for the old
// behaviour where any transport error read as "not found": GetErr must
// wrap ErrUnavailable on an injected endpoint fault, and only a
// reachable registry's answer may report ok=false with a nil error.
func TestRemoteGetDistinguishesOutageFromMiss(t *testing.T) {
	reg, rem := chaosRemote(t, "error:1@registry/get/*#1")
	key, err := reg.Publish(Entry{Name: "WSTime", WSDL: wstimeWSDL(t)})
	if err != nil {
		t.Fatal(err)
	}
	// Injected fault: must be an outage, not a miss.
	if _, ok, err := rem.GetErr(key); ok || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("chaos call: ok=%v err=%v, want ErrUnavailable", ok, err)
	}
	// Budget spent: the entry is there.
	if e, ok, err := rem.GetErr(key); !ok || err != nil || e.Name != "WSTime" {
		t.Fatalf("after chaos: e=%+v ok=%v err=%v", e, ok, err)
	}
	// A genuinely absent key is an authoritative miss, not an error.
	if _, ok, err := rem.GetErr("nope"); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
}

// TestRemoteFindByNameDistinguishesOutage mirrors the Get regression for
// the name index.
func TestRemoteFindByNameDistinguishesOutage(t *testing.T) {
	reg, rem := chaosRemote(t, "error:1@registry/findByName/*#1")
	if _, err := reg.Publish(Entry{Name: "WSTime", WSDL: wstimeWSDL(t)}); err != nil {
		t.Fatal(err)
	}
	if _, err := rem.FindByNameErr("WSTime"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("chaos call: err=%v, want ErrUnavailable", err)
	}
	if es, err := rem.FindByNameErr("WSTime"); err != nil || len(es) != 1 {
		t.Fatalf("after chaos: %v err=%v", es, err)
	}
	// An empty result from a live registry is authoritative.
	if es, err := rem.FindByNameErr("Ghost"); err != nil || len(es) != 0 {
		t.Fatalf("empty: %v err=%v", es, err)
	}
}

// TestCacheNeverNegativeCachesOutage is the satellite regression: a
// Cache over a chaos-injected Remote must not turn one failed lookup
// into a TTL-long "not found".
func TestCacheNeverNegativeCachesOutage(t *testing.T) {
	reg, rem := chaosRemote(t, "error:1@registry/get/*#1; error:1@registry/findByName/*#1")
	key, err := reg.Publish(Entry{Name: "WSTime", WSDL: wstimeWSDL(t)})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(rem, time.Hour)
	// First calls hit the injected faults; the cache reports the outage.
	if _, ok, err := cache.GetErr(key); ok || err == nil {
		t.Fatalf("get during outage: ok=%v err=%v", ok, err)
	}
	if _, err := cache.FindByNameErr("WSTime"); err == nil {
		t.Fatal("find during outage should error")
	}
	// Immediately after — same cache, TTL untouched — both must succeed:
	// the failed fills were not cached.
	if _, ok, err := cache.GetErr(key); !ok || err != nil {
		t.Fatalf("get after outage: ok=%v err=%v", ok, err)
	}
	if es, err := cache.FindByNameErr("WSTime"); err != nil || len(es) != 1 {
		t.Fatalf("find after outage: %v err=%v", es, err)
	}
	// And authoritative misses ARE still cached: hit counters move only
	// for the miss slot, the upstream sees one call.
	if _, ok := cache.Get("ghost"); ok {
		t.Fatal("ghost should miss")
	}
	if _, ok := cache.gets.Load("ghost"); !ok {
		t.Fatal("authoritative results should be cached")
	}
}
