package invoke

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"harness2/internal/container"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
)

// goroutineCount returns the goroutine count after giving the runtime a
// moment to retire exiting goroutines.
func goroutineCount() int {
	runtime.GC()
	return runtime.NumGoroutine()
}

// TestXDRMuxNoLeakOnServerChurn is the leak regression for the client:
// every path out of the demux machinery (server death with calls in
// flight, register on a dead pooled connection, port close) must unwind
// the muxConn goroutine (readLoop) and close the socket.
// The test churns through server restarts with concurrent callers and
// asserts the goroutine count returns to baseline.
func TestXDRMuxNoLeakOnServerChurn(t *testing.T) {
	c := container.New(container.Config{Name: "leak"})
	c.RegisterFactory("Counter", counterImpl())
	if _, _, err := c.Deploy("Counter", "c1"); err != nil {
		t.Fatal(err)
	}

	round := func(killMidFlight bool) {
		xs, err := NewXDRServer(c, "127.0.0.1:0", ServerOptions{Telemetry: telemetry.Disabled()})
		if err != nil {
			t.Fatal(err)
		}
		p := NewXDRPort(xs.Addr(), "c1", Options{Telemetry: telemetry.Disabled()})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					// Errors are expected once the server dies; the
					// invariant under test is resource unwinding, not
					// success.
					_, _ = p.Invoke(context.Background(), "inc", wire.Args("by", int64(1)))
				}
			}()
		}
		if killMidFlight {
			_ = xs.Close() // kill the server with calls in flight
		}
		wg.Wait()
		if !killMidFlight {
			_ = xs.Close()
		}
		// Calls against the dead server exercise the dial-failure and
		// dead-pooled-connection paths.
		_, _ = p.Invoke(context.Background(), "inc", wire.Args("by", int64(1)))
		_ = p.Close()
	}

	// Warm up lazy singletons (frame pools, default registries) so the
	// baseline is taken in steady state.
	round(false)
	baseline := goroutineCount()

	for i := 0; i < 4; i++ {
		round(i%2 == 0)
	}

	deadline := time.Now().Add(5 * time.Second)
	var now int
	for {
		now = goroutineCount()
		if now <= baseline+2 { // scheduler jitter tolerance
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline=%d now=%d\n%s", baseline, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestXDRMuxCancelledCallersDoNotLeak: callers that abandon calls via
// context cancellation must not strand goroutines or pending-map entries.
func TestXDRMuxCancelledCallersDoNotLeak(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	c := container.New(container.Config{Name: "leak2"})
	c.RegisterFactory("Blocker", blockerImpl(started, release))
	if _, _, err := c.Deploy("Blocker", "b1"); err != nil {
		t.Fatal(err)
	}
	xs, err := NewXDRServer(c, "127.0.0.1:0", ServerOptions{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer xs.Close()
	p := NewXDRPort(xs.Addr(), "b1", Options{Telemetry: telemetry.Disabled()})
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

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := goroutineCount(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellations: baseline=%d now=%d", baseline, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
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
