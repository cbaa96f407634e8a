package invoke

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"harness2/internal/registry"
	"harness2/internal/wire"
)

// countingSrc wraps a Lookup and counts FindByName round trips.
type countingSrc struct {
	registry.Lookup
	finds int32
}

func (c *countingSrc) FindByName(name string) []registry.Entry {
	atomic.AddInt32(&c.finds, 1)
	return c.Lookup.FindByName(name)
}

func binderHost(t *testing.T, lease time.Duration) (*ladderHost, *countingSrc) {
	t.Helper()
	h := newLadderHost(t)
	h.deploy(t, "MatMul", "mm1")
	reg := registry.New()
	if lease > 0 {
		doc, err := h.c.WSDLDocument("mm1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.PublishLeased(registry.Entry{Name: "MatMul", WSDL: doc}, lease); err != nil {
			t.Fatal(err)
		}
	} else if _, err := h.c.Expose("mm1", reg); err != nil {
		t.Fatal(err)
	}
	return h, &countingSrc{Lookup: reg}
}

func binderCall(t *testing.T, b *Binder, service string) {
	t.Helper()
	out, err := b.Invoke(context.Background(), service, "getResult", wire.Args(
		"mata", []float64{1, 2, 3}, "matb", []float64{4, 5, 6}))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := wire.GetArg(out, "result")
	if got := v.([]float64); len(got) != 3 || got[0] != 4 {
		t.Fatalf("unexpected result %v", got)
	}
}

func TestBinderMemoizesDiscovery(t *testing.T) {
	_, src := binderHost(t, 0)
	b := &Binder{Lookup: src, TTL: time.Hour}
	defer b.Close()
	for i := 0; i < 5; i++ {
		binderCall(t, b, "MatMul")
	}
	if n := atomic.LoadInt32(&src.finds); n != 1 {
		t.Fatalf("warm calls must not rediscover: %d FindByName calls", n)
	}
}

func TestBinderInvalidatesOnInvokeFault(t *testing.T) {
	_, src := binderHost(t, 0)
	b := &Binder{Lookup: src, TTL: time.Hour}
	defer b.Close()
	binderCall(t, b, "MatMul")
	if _, err := b.Invoke(context.Background(), "MatMul", "noSuchOp", nil); err == nil {
		t.Fatal("expected fault from unknown op")
	}
	binderCall(t, b, "MatMul")
	if n := atomic.LoadInt32(&src.finds); n != 2 {
		t.Fatalf("a faulted call must force rediscovery: %d FindByName calls", n)
	}
}

func TestBinderTTLExpiryRebinds(t *testing.T) {
	_, src := binderHost(t, 0)
	now := time.Unix(0, 0)
	b := &Binder{Lookup: src, TTL: time.Minute, Clock: func() time.Time { return now }}
	defer b.Close()
	binderCall(t, b, "MatMul")
	now = now.Add(30 * time.Second)
	binderCall(t, b, "MatMul")
	if n := atomic.LoadInt32(&src.finds); n != 1 {
		t.Fatalf("within TTL: %d FindByName calls", n)
	}
	now = now.Add(31 * time.Second)
	binderCall(t, b, "MatMul")
	if n := atomic.LoadInt32(&src.finds); n != 2 {
		t.Fatalf("past TTL: %d FindByName calls, want 2", n)
	}
}

func TestBinderLeaseClampsTTL(t *testing.T) {
	_, src := binderHost(t, 250*time.Millisecond)
	b := &Binder{Lookup: src, TTL: time.Hour}
	defer b.Close()
	binderCall(t, b, "MatMul")
	// Once the lease has lapsed, the binding must not outlive it even
	// though the nominal TTL is an hour. The re-discovery then fails
	// because the registration itself expired.
	time.Sleep(300 * time.Millisecond)
	_, err := b.Invoke(context.Background(), "MatMul", "getResult", nil)
	if err == nil {
		t.Fatal("expected rebind failure after lease expiry")
	}
	if n := atomic.LoadInt32(&src.finds); n < 2 {
		t.Fatalf("lease expiry must force rediscovery: %d FindByName calls", n)
	}
}

func TestBinderNoCachingWhenTTLZero(t *testing.T) {
	_, src := binderHost(t, 0)
	b := &Binder{Lookup: src}
	for i := 0; i < 3; i++ {
		binderCall(t, b, "MatMul")
	}
	if n := atomic.LoadInt32(&src.finds); n != 3 {
		t.Fatalf("TTL=0 must rediscover every call: %d FindByName calls", n)
	}
}
