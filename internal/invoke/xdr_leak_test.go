package invoke

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"harness2/internal/telemetry"
)

// goroutineCount returns the goroutine count after giving the runtime a
// moment to retire exiting goroutines.
func goroutineCount() int {
	runtime.GC()
	return runtime.NumGoroutine()
}

// awaitGoroutines polls goroutineCount until settled accepts it, and fails
// the test with every goroutine's stack if it has not within timeout; what
// names the wait in that message.
func awaitGoroutines(t *testing.T, timeout time.Duration, what string, settled func(n int) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		n := goroutineCount()
		if settled(n) {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines\n%s", what, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestXDRMuxCancelledCallersDoNotLeak: callers that abandon calls via
// context cancellation must not strand goroutines or pending-map entries.
func TestXDRMuxCancelledCallersDoNotLeak(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	h := newLadderHost(t)
	h.c.RegisterFactory("Blocker", blockerImpl(started, release))
	h.deploy(t, "Blocker", "b1")
	p := NewXDRPort(h.xdr.Addr(), "b1", Options{Telemetry: telemetry.Disabled()})
	defer p.Close()

	// Establish the connection (and its goroutines) first.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, _ = p.Invoke(ctx, "block", nil)
	cancel()
	baseline := goroutineCount()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if _, err := p.Invoke(ctx, "block", nil); err == nil {
				t.Error("blocked call should time out")
			}
		}()
	}
	wg.Wait()
	close(release) // let the server-side handlers drain

	awaitGoroutines(t, 5*time.Second, fmt.Sprintf("goroutines leaked after cancellations (baseline %d)", baseline),
		func(n int) bool { return n <= baseline+2 })
	// The abandoned calls must not linger in the pending map.
	p.mu.Lock()
	mc := p.mc
	p.mu.Unlock()
	if mc != nil {
		mc.mu.Lock()
		n := len(mc.pending)
		mc.mu.Unlock()
		if n != 0 {
			t.Fatalf("%d abandoned calls still pending", n)
		}
	}
}
