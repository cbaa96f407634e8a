package bench

import (
	"os"
	"testing"
	"time"

	"harness2/internal/registry"
)

// TestE15Gate is the CI regression gate over the metacity hot paths,
// run when E15_GATE=1 (CI exports it). Two assertions protect the
// ISSUE's scalability claims: the steady-state read paths — a cache-hit
// FindByName and a registry Get — must stay at 0 allocs/op (any
// allocation on these paths reintroduces the GC pressure the sharded
// store and cache removed), and a deterministic virtual-time sim
// slice must hold its availability and tail-latency envelope under
// chaos and churn.
func TestE15Gate(t *testing.T) {
	if os.Getenv("E15_GATE") == "" {
		t.Skip("set E15_GATE=1 to run the metacity gate")
	}

	// Allocation gate on the hot read paths.
	reg := registry.New()
	xml, err := e17WSDL()
	if err != nil {
		t.Fatal(err)
	}
	key, err := reg.Publish(registry.Entry{
		Name: "Hot", Key: "Hot::k", WSDL: xml,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := registry.NewCache(reg, time.Hour)
	if got := cache.FindByName("Hot"); len(got) != 1 {
		t.Fatalf("warmup resolve returned %d entries, want 1", len(got))
	}
	if a := testing.AllocsPerRun(2000, func() {
		if got := cache.FindByName("Hot"); len(got) != 1 {
			t.Fatal("cache hit lost the entry")
		}
	}); a != 0 {
		t.Errorf("cache-hit FindByName: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(2000, func() {
		if _, ok := reg.Get(key); !ok {
			t.Fatal("registry Get lost the entry")
		}
	}); a != 0 {
		t.Errorf("registry Get: %.1f allocs/op, want 0", a)
	}

	// Macro-envelope gate: the deterministic sim slice must keep serving
	// under chaos faults and node churn. Bounds carry slack over the
	// measured values (avail ~0.96, p99 ~17ms at this size) so only a
	// real regression — a stampede, a retry storm, a coherency stall —
	// trips them.
	res, err := E15SimRun(e15SmokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if avail := res.Availability(); avail < 0.90 {
		t.Errorf("sim availability %.3f under chaos+churn, want >= 0.90", avail)
	}
	if res.P99 > 100*time.Millisecond {
		t.Errorf("sim p99 %v, want <= 100ms", res.P99)
	}
}
