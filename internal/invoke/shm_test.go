package invoke

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"harness2/internal/container"
	"harness2/internal/registry"
	"harness2/internal/shmring"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
	"harness2/internal/xdr"
)

// shmHost stands up a container advertising both the shm and XDR
// bindings, so tests can assert the preference order as well as the shm
// data path itself.
type shmHost struct {
	c   *container.Container
	shm *ShmServer
	xdr *XDRServer
}

func newShmHost(t *testing.T, sockPath string) *shmHost {
	t.Helper()
	if !shmring.Supported() {
		t.Skip("shm binding unsupported on this platform")
	}
	c := container.New(container.Config{Name: "shmhost"})
	c.RegisterFactory("MatMul", matmulImpl())
	c.RegisterFactory("Counter", counterImpl())
	ss, err := NewShmServer(c, sockPath, ServerOptions{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ss.Close() })
	xs, err := NewXDRServer(c, "127.0.0.1:0", ServerOptions{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = xs.Close() })

	host := container.New(container.Config{
		Name:    "shmhost",
		XDRAddr: xs.Addr(),
		ShmAddr: ss.Addr(),
	})
	host.RegisterFactory("MatMul", matmulImpl())
	host.RegisterFactory("Counter", counterImpl())
	ss.Retarget(host)
	xs.Retarget(host)
	return &shmHost{c: host, shm: ss, xdr: xs}
}

func (h *shmHost) deploy(t *testing.T, class, id string) *wsdl.Definitions {
	t.Helper()
	inst, _, err := h.c.Deploy(class, id)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := h.c.WSDLFor(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

// TestDialPrefersShmOverXDR: with both network bindings advertised and
// no co-located container, Dial must land on the shared-memory rung and
// calls must round-trip through the rings.
func TestDialPrefersShmOverXDR(t *testing.T) {
	h := newShmHost(t, "")
	defs := h.deploy(t, "MatMul", "m1")
	p, err := Dial(defs, Options{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Kind() != wsdl.BindShm {
		t.Fatalf("kind = %v, want shm", p.Kind())
	}
	out, err := p.Invoke(context.Background(), "getResult",
		wire.Args("mata", []float64{1, 2, 3}, "matb", []float64{4, 5, 6}))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := wire.GetArg(out, "result")
	if got := v.([]float64); len(got) != 3 || got[0] != 4 || got[2] != 18 {
		t.Fatalf("result = %v", got)
	}
}

// TestShmLargeArgsExceedRingCapacity: same-host calls whose XDR record
// exceeds the ring capacity (1MiB by default — e.g. E3's full-ladder
// 384x384 MatMul at ~2.3MB of args) must stream through the rings in
// chunks, not fail with shmring.ErrTooLarge. Both directions stream
// here: the request carries two 2MiB arrays and the response one.
func TestShmLargeArgsExceedRingCapacity(t *testing.T) {
	h := newShmHost(t, "")
	defs := h.deploy(t, "MatMul", "m1")
	p, err := Dial(defs, Options{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Kind() != wsdl.BindShm {
		t.Fatalf("kind = %v, want shm", p.Kind())
	}
	const n = 1 << 18 // 256Ki float64s = 2MiB per array
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i], b[i] = float64(i), 2
	}
	out, err := p.Invoke(context.Background(), "getResult",
		wire.Args("mata", a, "matb", b))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := wire.GetArg(out, "result")
	got := v.([]float64)
	if len(got) != n || got[1] != 2 || got[n-1] != float64(n-1)*2 {
		t.Fatalf("result: len=%d", len(got))
	}
	// The connection must still be healthy for ordinary calls behind the
	// streamed one.
	if _, err := p.Invoke(context.Background(), "getResult",
		wire.Args("mata", []float64{1}, "matb", []float64{3})); err != nil {
		t.Fatalf("small call after streamed call: %v", err)
	}
}

// TestShmStaleSegmentCannotFailFreshCalls: pending-call maps are scoped
// per segment, so a late turn holder on a replaced (closed) segment can
// only fail calls that were in flight on its own segment — never fresh
// calls registered after the re-handshake.
func TestShmStaleSegmentCannotFailFreshCalls(t *testing.T) {
	h := newShmHost(t, "")
	defs := h.deploy(t, "Counter", "c1")
	p, err := Dial(defs, Options{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Invoke(context.Background(), "inc", wire.Args("by", int64(1))); err != nil {
		t.Fatal(err)
	}
	sp := bare(p).(*ShmPort)
	sp.mu.Lock()
	old := sp.cur
	sp.mu.Unlock()
	// Kill the first segment; the next invoke re-handshakes onto a new
	// one (same server incarnation, so no generation error).
	_ = old.seg.Close()
	if _, err := p.Invoke(context.Background(), "inc", wire.Args("by", int64(1))); err != nil {
		t.Fatalf("invoke after segment loss: %v", err)
	}
	sp.mu.Lock()
	cur := sp.cur
	sp.mu.Unlock()
	if cur == old {
		t.Fatal("expected a fresh connection after segment loss")
	}
	// A call pending on the new connection must survive the old
	// connection's (possibly delayed) failure path.
	ch := make(chan shmReply, 1)
	if err := cur.register(99999, ch); err != nil {
		t.Fatal(err)
	}
	old.fail(errors.New("stale turn holder failing late"))
	select {
	case r := <-ch:
		t.Fatalf("fresh call failed by a stale segment: %v", r.err)
	default:
	}
	cur.drop(99999)
}

// TestShmFaultsPropagate: a server-side fault must come back as an error
// on the caller, not poison the connection for later calls.
func TestShmFaultsPropagate(t *testing.T) {
	h := newShmHost(t, "")
	defs := h.deploy(t, "Counter", "c1")
	p, err := Dial(defs, Options{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Kind() != wsdl.BindShm {
		t.Fatalf("kind = %v, want shm", p.Kind())
	}
	if _, err := p.Invoke(context.Background(), "nosuch", nil); err == nil {
		t.Fatal("unknown op should fault")
	}
	out, err := p.Invoke(context.Background(), "inc", wire.Args("by", int64(2)))
	if err != nil {
		t.Fatalf("call after fault: %v", err)
	}
	v, _ := wire.GetArg(out, "total")
	if v.(int64) != 2 {
		t.Fatalf("total = %v", v)
	}
}

// TestShmConcurrentInvokes drives one port from many goroutines — the
// read turn passing between callers and the SPSC write serialization
// under load.
func TestShmConcurrentInvokes(t *testing.T) {
	h := newShmHost(t, "")
	defs := h.deploy(t, "Counter", "c1")
	p, err := Dial(defs, Options{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const gs, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := p.Invoke(context.Background(), "inc", wire.Args("by", int64(1))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	out, err := p.Invoke(context.Background(), "inc", wire.Args("by", int64(0)))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := wire.GetArg(out, "total")
	if v.(int64) != gs*per {
		t.Fatalf("total = %v, want %d", v, gs*per)
	}
}

// TestShmStaleGenerationInvalidatesBinding is the satellite-2 regression:
// a server restart behind the same socket path mints a new generation;
// the cached Binder port must fail exactly once with
// ErrStaleShmGeneration, and the next call must rebind and succeed.
func TestShmStaleGenerationInvalidatesBinding(t *testing.T) {
	h := newShmHost(t, "")
	h.deploy(t, "Counter", "c1")
	reg := registry.New()
	if _, err := h.c.Expose("c1", reg); err != nil {
		t.Fatal(err)
	}
	b := &Binder{Lookup: reg, Opts: Options{Telemetry: telemetry.Disabled()}, TTL: time.Hour}
	defer b.Close()

	inc := func() (int64, error) {
		out, err := b.Invoke(context.Background(), "Counter", "inc", wire.Args("by", int64(1)))
		if err != nil {
			return 0, err
		}
		v, _ := wire.GetArg(out, "total")
		return v.(int64), nil
	}
	if total, err := inc(); err != nil || total != 1 {
		t.Fatalf("first call: total=%d err=%v", total, err)
	}
	p, err := b.Port("Counter")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != wsdl.BindShm {
		t.Fatalf("bound kind = %v, want shm", p.Kind())
	}
	oldGen := h.shm.Generation()

	// Restart the shm endpoint behind the same socket path: a new
	// incarnation with a new generation stamp. The advertised WSDL in the
	// registry is unchanged, so only the generation pin can detect this.
	sockPath := h.shm.SockPath()
	if err := h.shm.Close(); err != nil {
		t.Fatal(err)
	}
	ss2, err := NewShmServer(h.c, sockPath, ServerOptions{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	if ss2.Generation() == oldGen {
		t.Fatal("restarted server reused the generation stamp")
	}

	// The cached binding re-handshakes, sees the new generation, and must
	// refuse it rather than silently rebind.
	if _, err := inc(); !errors.Is(err, ErrStaleShmGeneration) {
		t.Fatalf("call across restart: %v, want ErrStaleShmGeneration", err)
	}
	// That error invalidated the binding: this call rediscovers, dials the
	// new incarnation, and succeeds. (The counter restarts at 1: the old
	// instance state lives in the container, which we kept — only the
	// endpoint restarted — so the count continues.)
	if total, err := inc(); err != nil || total != 2 {
		t.Fatalf("call after rebind: total=%d err=%v", total, err)
	}
	p2, err := b.Port("Counter")
	if err != nil {
		t.Fatal(err)
	}
	if sp, ok := bare(p2).(*ShmPort); !ok || sp.Generation() != ss2.Generation() {
		t.Fatalf("rebound port not pinned to the new incarnation (ok=%v)", ok)
	}
}

// TestShmInvokeRaceWithClose runs invokes concurrently with a server
// shutdown and then a port shutdown. The invariant is memory safety (no
// use-after-munmap — run under -race) and that every call returns.
func TestShmInvokeRaceWithClose(t *testing.T) {
	h := newShmHost(t, "")
	defs := h.deploy(t, "Counter", "c1")
	p, err := Dial(defs, Options{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				// Errors are expected once the server dies.
				_, _ = p.Invoke(context.Background(), "inc", wire.Args("by", int64(1)))
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	_ = h.shm.Close() // mid-flight
	_ = p.Close()     // racing the failed callers
	wg.Wait()
	if _, err := p.Invoke(context.Background(), "inc", wire.Args("by", int64(1))); err == nil {
		t.Fatal("invoke on closed port should fail")
	}
}

// TestShmNoLeakOnServerChurn mirrors TestXDRMuxNoLeakOnServerChurn for
// the shm binding: every exit path (server death with calls in flight,
// handshake against a dead socket, port close) must unwind the workers
// and watcher goroutines on both sides and unmap the segments.
func TestShmNoLeakOnServerChurn(t *testing.T) {
	if !shmring.Supported() {
		t.Skip("shm binding unsupported on this platform")
	}
	c := container.New(container.Config{Name: "shmleak"})
	c.RegisterFactory("Counter", counterImpl())
	if _, _, err := c.Deploy("Counter", "c1"); err != nil {
		t.Fatal(err)
	}

	round := func(killMidFlight bool) {
		ss, err := NewShmServer(c, "", ServerOptions{Telemetry: telemetry.Disabled()})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewShmPort(ss.Addr(), "c1")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					_, _ = p.Invoke(context.Background(), "inc", wire.Args("by", int64(1)))
				}
			}()
		}
		if killMidFlight {
			_ = ss.Close()
		}
		wg.Wait()
		if !killMidFlight {
			_ = ss.Close()
		}
		// Handshake against the dead (unlinked) socket: the dial-failure
		// path must not strand anything either.
		_, _ = p.Invoke(context.Background(), "inc", wire.Args("by", int64(1)))
		_ = p.Close()
	}

	round(false) // warm lazy singletons before taking the baseline
	baseline := goroutineCount()

	for i := 0; i < 4; i++ {
		round(i%2 == 0)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		now := goroutineCount()
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

// TestShmIdlePortHoldsOnlyItsWatcher: once a burst of calls goes idle,
// a port keeps exactly one goroutine per segment, its liveness watcher;
// reading replies is the callers' own work. The server side of the
// segment holds its handshake goroutine, its watcher and its workers.
func TestShmIdlePortHoldsOnlyItsWatcher(t *testing.T) {
	p, _, _ := newGatePort(t)
	baseline := goroutineCount() // the port has never been called
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := p.Invoke(context.Background(), "ping", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	want := baseline + 1 + 2 + serverWorkers() // client watcher; server serveConn, watcher, workers
	deadline := time.Now().Add(2 * time.Second)
	for {
		now := goroutineCount()
		if now == want {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("idle port: %d goroutines, want %d (baseline %d)\n%s", now, want, baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// newGatePort serves one Gate instance over shm and returns a port to
// it, with the channel each wait call signals on when it starts
// executing and the function that releases every wait call.
func newGatePort(t *testing.T) (p *ShmPort, started <-chan struct{}, release func()) {
	t.Helper()
	if !shmring.Supported() {
		t.Skip("shm binding unsupported on this platform")
	}
	st := make(chan struct{}, 16)
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	c := container.New(container.Config{Name: "shmgate"})
	c.RegisterFactory("Gate", gateImpl(gate, st))
	if _, _, err := c.Deploy("Gate", "g1"); err != nil {
		t.Fatal(err)
	}
	ss, err := NewShmServer(c, "", ServerOptions{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	p, err = NewShmPort(ss.Addr(), "g1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		release()
		_ = p.Close()
		_ = ss.Close()
	})
	return p, st, release
}

// within receives from ch, failing the test if nothing arrives in time.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// ping makes one fast call, which must complete.
func ping(t *testing.T, p *ShmPort) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := p.Invoke(ctx, "ping", nil); err != nil {
		t.Fatalf("fast call behind a blocked one: %v", err)
	}
}

// turnHeld waits until some caller on p holds the segment's read turn.
func turnHeld(t *testing.T, p *ShmPort) {
	t.Helper()
	p.mu.Lock()
	c := p.cur
	p.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for len(c.turn) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("no caller took the read turn")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShmSlowCallsDoNotBlockSegment: a server worker passes the ring-A
// read turn on before it executes, so calls stuck executing on the
// server neither stop the next requests being read nor a fast call on
// the same port from completing.
func TestShmSlowCallsDoNotBlockSegment(t *testing.T) {
	p, started, release := newGatePort(t)
	const slow = 3
	done := make(chan error, slow)
	for i := 0; i < slow; i++ {
		go func() {
			_, err := p.Invoke(context.Background(), "wait", nil)
			done <- err
		}()
	}
	for i := 0; i < slow; i++ {
		within(t, started, "every slow call executing at once")
	}
	ping(t, p)
	release()
	for i := 0; i < slow; i++ {
		if err := <-done; err != nil {
			t.Fatalf("slow call: %v", err)
		}
	}
}

// TestShmTurnHolderDeliversOtherReplies: the caller holding the client
// read turn is waiting on a call that does not return, yet the reply to
// a second caller's fast call still reaches that caller.
func TestShmTurnHolderDeliversOtherReplies(t *testing.T) {
	p, started, release := newGatePort(t)
	done := make(chan error, 1)
	go func() {
		_, err := p.Invoke(context.Background(), "wait", nil)
		done <- err
	}()
	within(t, started, "the blocked call")
	turnHeld(t, p) // the blocked caller, the only one, holds the turn
	ping(t, p)
	select {
	case err := <-done:
		t.Fatalf("blocked call returned before release: %v", err)
	default:
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
}

// TestShmTurnHolderDeadlineHandsTurnOn: a turn holder whose context
// expires returns context.DeadlineExceeded within a few milliseconds of
// its deadline, and the caller waiting behind it takes the turn and gets
// its own reply — nobody is stranded without a reader.
func TestShmTurnHolderDeadlineHandsTurnOn(t *testing.T) {
	p, started, release := newGatePort(t)
	const timeout = 50 * time.Millisecond
	first := make(chan error, 1)
	var elapsed time.Duration
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		start := time.Now()
		_, err := p.Invoke(ctx, "wait", nil)
		elapsed = time.Since(start)
		first <- err
	}()
	within(t, started, "the first call")
	turnHeld(t, p)
	second := make(chan error, 1)
	go func() {
		_, err := p.Invoke(context.Background(), "wait", nil)
		second <- err
	}()
	within(t, started, "the second call")
	if err := within(t, first, "the expired turn holder"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("turn holder past its deadline: %v, want DeadlineExceeded", err)
	}
	if elapsed > timeout+5*time.Millisecond {
		t.Fatalf("turn holder returned %v after a %v deadline", elapsed, timeout)
	}
	turnHeld(t, p) // the second caller took the turn over
	release()
	if err := within(t, second, "the caller behind it"); err != nil {
		t.Fatalf("caller behind the expired turn holder: %v", err)
	}
}

// TestShmCancelledCallersDoNotLeakPendingEntries: a caller that abandons
// an in-flight shm call via context cancellation must not leave its entry
// in the pending map; the late response is read and dropped.
func TestShmCancelledCallersDoNotLeakPendingEntries(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	if !shmring.Supported() {
		t.Skip("shm binding unsupported on this platform")
	}
	c := container.New(container.Config{Name: "shmleak2"})
	c.RegisterFactory("Blocker", blockerImpl(started, release))
	if _, _, err := c.Deploy("Blocker", "b1"); err != nil {
		t.Fatal(err)
	}
	ss, err := NewShmServer(c, "", ServerOptions{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	p, err := NewShmPort(ss.Addr(), "b1")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
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
	close(release) // drain the server-side handlers

	p.mu.Lock()
	sc := p.cur
	p.mu.Unlock()
	if sc == nil {
		t.Fatal("no live shm connection after invokes")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := sc.pending()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d abandoned calls still pending", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShmAbandonedRepliesDoNotStallServer: replies wider than ring B to
// calls whose callers all gave up must still be read off the ring. If
// they were not, every server worker would sit on its ring-B write: the
// server's execution slots would be lost to other clients, and nobody
// would read this port's next request, one wider than ring A.
func TestShmAbandonedRepliesDoNotStallServer(t *testing.T) {
	if !shmring.Supported() {
		t.Skip("shm binding unsupported on this platform")
	}
	const n = 1 << 18 // 256Ki float64s = 2MiB, twice the default ring
	started := make(chan struct{}, 64)
	gate := make(chan struct{})
	c := container.New(container.Config{Name: "shmbulk"})
	c.RegisterFactory("Bulk", container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Bulk", Operations: []wsdl.OpSpec{
				{Name: "late", Output: []wsdl.ParamSpec{{Name: "v", Type: wire.KindFloat64Array}}},
				{Name: "len", Input: []wsdl.ParamSpec{{Name: "v", Type: wire.KindFloat64Array}},
					Output: []wsdl.ParamSpec{{Name: "n", Type: wire.KindInt64}}},
			}},
			Handlers: map[string]container.OpFunc{
				"late": func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
					started <- struct{}{}
					<-gate
					return wire.Args("v", make([]float64, n)), nil
				},
				"len": func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
					v, _ := wire.GetArg(args, "v")
					return wire.Args("n", int64(len(v.([]float64)))), nil
				},
			},
		}
	}))
	if _, _, err := c.Deploy("Bulk", "b1"); err != nil {
		t.Fatal(err)
	}
	ss, err := NewShmServer(c, "", ServerOptions{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	port := func() *ShmPort {
		p, err := NewShmPort(ss.Addr(), "b1")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	idle, other := port(), port()

	workers := serverWorkers()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if _, err := idle.Invoke(ctx, "late", nil); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("abandoned call: %v, want DeadlineExceeded", err)
			}
		}()
	}
	for i := 0; i < workers; i++ {
		within(t, started, "every worker executing an abandoned call")
	}
	wg.Wait()
	close(gate) // every worker now owes the idle port a 2MiB reply

	// length calls len on p with a v of m elements, in the background.
	length := func(p *ShmPort, m int) <-chan error {
		errc := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, err := p.Invoke(ctx, "len", wire.Args("v", make([]float64, m)))
			if err == nil {
				if v, _ := wire.GetArg(out, "n"); v != int64(m) {
					err = fmt.Errorf("len = %v, want %d", v, m)
				}
			}
			errc <- err
		}()
		return errc
	}
	if err := within(t, length(other, 1), "a call from another segment"); err != nil {
		t.Fatalf("call from another segment: %v", err)
	}
	if err := within(t, length(idle, n), "a wide request on the idle port"); err != nil {
		t.Fatalf("wide request on the idle port: %v", err)
	}
}

// TestShmServerCloseWaitsForSegmentUnlink: when the client hangs up first,
// it is serveConn's liveness watcher that closes the segment and unlinks
// its file. Close must not return while the watcher is still in there — a
// process that exits right after Close would leave the file in /dev/shm.
func TestShmServerCloseWaitsForSegmentUnlink(t *testing.T) {
	if !shmring.Supported() {
		t.Skip("shm binding unsupported on this platform")
	}
	c := container.New(container.Config{Name: "shmunlink"})
	ss, err := NewShmServer(c, "", ServerOptions{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	conn, err := net.Dial("unix", ss.SockPath())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := xdr.ReadFramePooled(bufio.NewReader(conn))
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	segPath, err := xdr.NewDecoder(frame).String()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segPath); err != nil {
		t.Fatalf("segment file before the hang-up: %v", err)
	}
	conn.Close() // the client goes first
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("segment file %s outlived ShmServer.Close (stat: %v)", segPath, err)
	}
}
