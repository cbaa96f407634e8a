package invoke

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"harness2/internal/container"
	"harness2/internal/shmring"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// instrumentAs wraps a bare port in the instruments of its kind's ladder
// row, exactly as Dial would have.
func instrumentAs(p Port, opts Options) Port {
	for i := range ladder {
		if ladder[i].kind == p.Kind() {
			return ladder[i].instrument(p, opts)
		}
	}
	panic("no ladder row for " + p.Kind().String())
}

// dialXDR is the XDR rung as Dial opens it — the bare port in its row's
// instruments — for tests and benchmarks that price or gate the whole
// client path against an address rather than a WSDL.
func dialXDR(addr, instance string, opts Options) Port {
	return instrumentAs(NewXDRPort(addr, instance, opts), opts)
}

// bare returns the transport under a port Dial instrumented.
func bare(p Port) Port {
	if w, ok := p.(*instrumented); ok {
		return w.Port
	}
	return p
}

// ladderHost serves one container on every rung of the ladder: local
// (to a caller listing it in LocalContainers), shm where the platform has
// it, XDR, SOAP and HTTP GET. Its servers record into a disabled
// registry, so a test's registry sees only the client side.
type ladderHost struct {
	c *container.Container
}

func newLadderHost(t *testing.T, class string, f container.Factory) *ladderHost {
	t.Helper()
	off := ServerOptions{Telemetry: telemetry.Disabled()}
	boot := container.New(container.Config{Name: "ladder"})
	hs := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(hs.Close)
	xs, err := NewXDRServer(boot, "127.0.0.1:0", off)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = xs.Close() })
	cfg := container.Config{
		Name:     "ladder",
		SOAPBase: hs.URL + "/services",
		HTTPBase: hs.URL + "/rest",
		XDRAddr:  xs.Addr(),
	}
	var ss *ShmServer
	if shmring.Supported() {
		if ss, err = NewShmServer(boot, "", off); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ss.Close() })
		cfg.ShmAddr = ss.Addr()
	}
	c := container.New(cfg)
	c.RegisterFactory(class, f)
	mux := http.NewServeMux()
	mux.Handle("/services/", &SOAPHandler{Container: c, Telemetry: off.Telemetry})
	mux.Handle("/rest/", http.StripPrefix("/rest/", &HTTPGetHandler{Container: c, Telemetry: off.Telemetry}))
	hs.Config.Handler = mux
	xs.Retarget(c)
	if ss != nil {
		ss.Retarget(c)
	}
	return &ladderHost{c: c}
}

func (h *ladderHost) deploy(t *testing.T, class, id string) *wsdl.Definitions {
	t.Helper()
	if _, _, err := h.c.Deploy(class, id); err != nil {
		t.Fatal(err)
	}
	defs, err := h.c.WSDLFor(id)
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

// rungs calls run once per ladder row, cheapest first, with Dial options
// that leave only that row's kind allowed. The shm row logs why it did
// not run on a platform without shared-memory segments.
func (h *ladderHost) rungs(t *testing.T, opts Options, run func(t *testing.T, r *rung, opts Options)) {
	for i := range ladder {
		r := &ladder[i]
		t.Run(r.label, func(t *testing.T) {
			if r.kind == wsdl.BindShm && !shmring.Supported() {
				t.Log("shm column not run: shmring.Supported() is false on this platform")
				return
			}
			o := opts
			o.LocalContainers = []*container.Container{h.c}
			o.Forbid = nil
			for _, other := range ladder {
				if other.kind != r.kind {
					o.Forbid = append(o.Forbid, other.kind)
				}
			}
			run(t, r, o)
		})
	}
}

// probeImpl is a component whose tick counts its executions in ticks and
// whose nap sleeps 2 s unless its context ends first.
func probeImpl(ticks *atomic.Int64) container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Probe", Operations: []wsdl.OpSpec{
				{Name: "tick", Output: []wsdl.ParamSpec{{Name: "n", Type: wire.KindInt64}}},
				{Name: "nap", Output: []wsdl.ParamSpec{{Name: "n", Type: wire.KindInt64}}},
			}},
			Handlers: map[string]container.OpFunc{
				"tick": func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
					return wire.Args("n", ticks.Add(1)), nil
				},
				"nap": func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
					select {
					case <-time.After(2 * time.Second):
						return wire.Args("n", int64(0)), nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				},
			},
		}
	})
}

// TestRungRefusesDoneContext: a call whose context is already cancelled
// fails with context.Canceled on every rung without executing the
// operation, and the port stays usable for a live call.
func TestRungRefusesDoneContext(t *testing.T) {
	var ticks atomic.Int64
	h := newLadderHost(t, "Probe", probeImpl(&ticks))
	defs := h.deploy(t, "Probe", "p1")
	h.rungs(t, Options{Telemetry: telemetry.Disabled()}, func(t *testing.T, r *rung, opts Options) {
		p, err := Dial(defs, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if p.Kind() != r.kind {
			t.Fatalf("dialed %v, want %v", p.Kind(), r.kind)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		before := ticks.Load()
		if _, err := p.Invoke(ctx, "tick", nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := ticks.Load() - before; n != 0 {
			t.Fatalf("cancelled call still executed %d time(s)", n)
		}
		if _, err := p.Invoke(context.Background(), "tick", nil); err != nil {
			t.Fatalf("live call after a cancelled one: %v", err)
		}
		if n := ticks.Load() - before; n != 1 {
			t.Fatalf("live call executed %d time(s), want 1", n)
		}
	})
}

// TestRungHonoursDeadline: a deadline that ends mid-call ends the call on
// every rung — the caller gets context.DeadlineExceeded well before the
// operation's own 2 s would have run out.
func TestRungHonoursDeadline(t *testing.T) {
	var ticks atomic.Int64
	h := newLadderHost(t, "Probe", probeImpl(&ticks))
	defs := h.deploy(t, "Probe", "p1")
	h.rungs(t, Options{Telemetry: telemetry.Disabled()}, func(t *testing.T, r *rung, opts Options) {
		p, err := Dial(defs, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err = p.Invoke(ctx, "nap", nil)
		if took := time.Since(start); took > time.Second {
			t.Fatalf("call returned after %v, want < 1s", took)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
}

// nopPort is a transport that does nothing, so a benchmark over it
// prices the instrumented wrapper alone.
type nopPort struct{}

func (nopPort) Invoke(context.Context, string, []wire.Arg) ([]wire.Arg, error) { return nil, nil }
func (nopPort) Kind() wsdl.BindingKind                                         { return wsdl.BindXDR }
func (nopPort) Endpoint() string                                               { return "nop" }
func (nopPort) Close() error                                                   { return nil }

// BenchmarkInstrumentedDisabled prices the wrapper every rung runs in,
// with telemetry switched off and no fault injector: it must not
// allocate.
func BenchmarkInstrumentedDisabled(b *testing.B) {
	p := instrumentAs(nopPort{}, Options{Telemetry: telemetry.Disabled()})
	ctx := context.Background()
	args := wire.Args("by", int64(1))
	call := func() {
		if _, err := p.Invoke(ctx, "inc", args); err != nil {
			b.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, call); a != 0 {
		b.Fatalf("instrumented call allocates %v times, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}
