package invoke

import (
	"bufio"
	"context"
	"errors"
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

// TestShmStaleDemuxCannotFailFreshCalls: pending-call maps are scoped
// per segment, so a demux goroutine from a replaced (closed) segment
// firing late can only fail calls that were in flight on its own
// segment — never fresh calls registered after the re-handshake.
func TestShmStaleDemuxCannotFailFreshCalls(t *testing.T) {
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
	sp := p.(*ShmPort)
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
	// connection's (possibly delayed) demux failure path.
	ch := make(chan shmReply, 1)
	if err := cur.register(99999, ch); err != nil {
		t.Fatal(err)
	}
	old.fail(errors.New("stale demux firing late"))
	select {
	case r := <-ch:
		t.Fatalf("fresh call failed by stale demux: %v", r.err)
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
// multiplexing demux and the SPSC write serialization under load.
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
	if sp, ok := p2.(*ShmPort); !ok || sp.Generation() != ss2.Generation() {
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
// handshake against a dead socket, port close) must unwind the demux and
// watcher goroutines on both sides and unmap the segments.
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
		p.SetTelemetry(telemetry.Disabled())
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

// TestShmCancelledCallersDoNotLeakPendingEntries: a caller that abandons
// an in-flight shm call via context cancellation must remove its entry
// from the demux map; the late response is dropped and its buffer reused.
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
	p.SetTelemetry(telemetry.Disabled())
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
