package invoke

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harness2/internal/container"
	"harness2/internal/resilience"
	"harness2/internal/resilience/chaos"
	"harness2/internal/shmring"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// fakePort is an in-memory Port with a programmable failure budget.
type fakePort struct {
	kind   wsdl.BindingKind
	ep     string
	fail   int32 // fail this many calls before succeeding
	err    error
	calls  int32
	closed int32
}

func (f *fakePort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	atomic.AddInt32(&f.calls, 1)
	if atomic.AddInt32(&f.fail, -1) >= 0 {
		return nil, f.err
	}
	return wire.Args("from", f.ep), nil
}

func (f *fakePort) Kind() wsdl.BindingKind { return f.kind }
func (f *fakePort) Endpoint() string       { return f.ep }
func (f *fakePort) Close() error           { atomic.AddInt32(&f.closed, 1); return nil }

func testResiliencePolicy(t *testing.T, opts ...resilience.Option) *resilience.Policy {
	t.Helper()
	base := []resilience.Option{
		resilience.WithMaxAttempts(4),
		resilience.WithBackoff(time.Microsecond, 10*time.Microsecond),
		resilience.WithTelemetry(telemetry.Disabled()),
	}
	p, err := resilience.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestResilientPortNilPolicyFastPath(t *testing.T) {
	a := &fakePort{kind: wsdl.BindXDR, ep: "a"}
	b := &fakePort{kind: wsdl.BindSOAP, ep: "b"}
	p, err := NewResilientPort(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), "getX", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := wire.GetArg(out, "from"); v != "a" {
		t.Fatalf("from = %v", v)
	}
	if a.calls != 1 || b.calls != 0 {
		t.Fatalf("calls = %d,%d", a.calls, b.calls)
	}
	// Errors pass through untouched on the disabled path.
	a.fail, a.err = 1, errors.New("boom")
	if _, err := p.Invoke(context.Background(), "getX", nil); err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestNewResilientPortRejectsEmptyLadder(t *testing.T) {
	if _, err := NewResilientPort(nil); err == nil {
		t.Fatal("empty ladder should be rejected")
	}
}

func TestResilientPortFailsOverAcrossLadder(t *testing.T) {
	a := &fakePort{kind: wsdl.BindXDR, ep: "a", fail: 99,
		err: resilience.MarkTransient(errors.New("link down"))}
	b := &fakePort{kind: wsdl.BindSOAP, ep: "b"}
	p, err := NewResilientPort(testResiliencePolicy(t), a, b)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), "getX", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := wire.GetArg(out, "from"); v != "b" {
		t.Fatalf("from = %v", v)
	}
	if a.calls == 0 || b.calls != 1 {
		t.Fatalf("calls = %d,%d", a.calls, b.calls)
	}
	// The port still reports the primary rung's identity.
	if p.Kind() != wsdl.BindXDR || p.Endpoint() != "a" {
		t.Fatalf("identity = %v %q", p.Kind(), p.Endpoint())
	}
	if err := p.Close(); err != nil || a.closed != 1 || b.closed != 1 {
		t.Fatalf("close: %v %d %d", err, a.closed, b.closed)
	}
}

func TestResilientPortPermanentErrorNoFailover(t *testing.T) {
	a := &fakePort{kind: wsdl.BindXDR, ep: "a", fail: 1,
		err: resilience.MarkPermanent(errors.New("no such operation"))}
	b := &fakePort{kind: wsdl.BindSOAP, ep: "b"}
	p, err := NewResilientPort(testResiliencePolicy(t), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(context.Background(), "getX", nil); err == nil {
		t.Fatal("permanent error should surface")
	}
	if a.calls != 1 || b.calls != 0 {
		t.Fatalf("calls = %d,%d (permanent errors must not fail over)", a.calls, b.calls)
	}
}

func TestIdempotentByName(t *testing.T) {
	for op, want := range map[string]bool{
		"ping": true, "classes": true, "status": true,
		"getResult": true, "listInstances": true, "findByName": true,
		"describe": true, "lookup": true, "readState": true, "queryAll": true,
		"inc": false, "setMatrix": false, "destroy": false, "": false,
	} {
		if got := IdempotentByName(op); got != want {
			t.Errorf("IdempotentByName(%q) = %v, want %v", op, got, want)
		}
	}
}

// TestResilientDialChaosFailover is the end-to-end ladder test: chaos
// kills every XDR client call before it is sent, and the resilience
// policy walks the Figure 5 ladder down to SOAP. The operation is
// non-idempotent (Counter.inc), so the test also proves chaos error
// faults are classified unsent — retried without double-applying.
func TestResilientDialChaosFailover(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "Counter", "c1")

	inj, err := chaos.New(1, chaos.MustParse("error:1@xdr")...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DialResilient(defs, Options{
		Chaos:     inj,
		Policy:    testResiliencePolicy(t),
		Telemetry: telemetry.Disabled(),
		Forbid:    []wsdl.BindingKind{wsdl.BindShm},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Kind() != wsdl.BindXDR {
		t.Fatalf("primary rung = %v, want xdr", p.Kind())
	}
	for i := 1; i <= 3; i++ {
		out, err := p.Invoke(context.Background(), "inc", wire.Args("by", int64(2)))
		if err != nil {
			t.Fatalf("inc %d: %v", i, err)
		}
		total, _ := wire.GetArg(out, "total")
		if total != int64(2*i) {
			t.Fatalf("total after inc %d = %v (retries must not double-apply)", i, total)
		}
	}
}

// TestResilientDialChaosRetry: a bounded chaos rule (#2) fails the first
// two XDR calls. With SOAP/HTTP forbidden the ladder has a single rung,
// so the policy must retry the XDR port itself until the rule's budget is
// spent and the call succeeds.
func TestResilientDialChaosRetry(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "MatMul", "m1")

	inj, err := chaos.New(7, chaos.MustParse("error:1@xdr#2")...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DialResilient(defs, Options{
		Chaos:     inj,
		Policy:    testResiliencePolicy(t),
		Telemetry: telemetry.Disabled(),
		Forbid:    []wsdl.BindingKind{wsdl.BindShm, wsdl.BindSOAP, wsdl.BindHTTP},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	out, err := p.Invoke(context.Background(), "getResult",
		wire.Args("mata", []float64{2, 3}, "matb", []float64{4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := wire.GetArg(out, "result")
	got := res.([]float64)
	if len(got) != 2 || got[0] != 8 || got[1] != 15 {
		t.Fatalf("result = %v", got)
	}
	if fired := inj.Fired(); len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("chaos fired = %v, want [2]", fired)
	}
}

// blockerImpl is a component whose op parks until released — used to pin
// server concurrency for admission-control tests.
func blockerImpl(started chan<- struct{}, release <-chan struct{}) container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Blocker", Operations: []wsdl.OpSpec{
				{Name: "block", Output: []wsdl.ParamSpec{{Name: "ok", Type: wire.KindInt64}}},
			}},
			Handlers: map[string]container.OpFunc{
				"block": func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
					started <- struct{}{}
					select {
					case <-release:
					case <-ctx.Done():
					}
					return wire.Args("ok", int64(1)), nil
				},
			},
		}
	})
}

// TestXDRServerShedsWhenOverloaded: a container whose one admission point
// is a one-slot, no-queue limiter sheds the second concurrent call with a
// fault that classifies as Overloaded on the client side of the wire —
// the socket's, the ring's and both text bindings' alike.
func TestXDRServerShedsWhenOverloaded(t *testing.T) {
	opts := ServerOptions{Telemetry: telemetry.Disabled()}
	for name, open := range map[string]func(t *testing.T, c *container.Container) func() Port{
		"xdr": func(t *testing.T, c *container.Container) func() Port {
			xs, err := NewXDRServer(c, "127.0.0.1:0", opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = xs.Close() })
			return func() Port {
				p := NewXDRPort(xs.Addr(), "b1", Options{Telemetry: telemetry.Disabled()})
				return p
			}
		},
		"soap": func(t *testing.T, c *container.Container) func() Port {
			hs := httptest.NewServer(&SOAPHandler{Container: c, Telemetry: telemetry.Disabled()})
			t.Cleanup(hs.Close)
			return func() Port { return &SOAPPort{URL: hs.URL + "/b1"} }
		},
		"http": func(t *testing.T, c *container.Container) func() Port {
			hs := httptest.NewServer(&HTTPGetHandler{Container: c, Telemetry: telemetry.Disabled()})
			t.Cleanup(hs.Close)
			return func() Port { return &HTTPPort{URL: hs.URL + "/b1"} }
		},
		"shm": func(t *testing.T, c *container.Container) func() Port {
			if !shmring.Supported() {
				t.Skip("no shm on this platform")
			}
			ss, err := NewShmServer(c, "", opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = ss.Close() })
			return func() Port {
				p, err := NewShmPort(ss.Addr(), "b1")
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			started := make(chan struct{}, 4)
			release := make(chan struct{})
			c := container.New(container.Config{Name: "shed", Admission: resilience.NewLimiter(1, 0, 0)})
			c.RegisterFactory("Blocker", blockerImpl(started, release))
			if _, _, err := c.Deploy("Blocker", "b1"); err != nil {
				t.Fatal(err)
			}
			port := open(t, c)
			p1 := port()
			defer p1.Close()
			errc := goInvoke(context.Background(), p1, "block", 1)
			<-started // the slot is now held

			p2 := port()
			defer p2.Close()
			_, err := p2.Invoke(context.Background(), "block", nil)
			if err == nil {
				t.Fatal("second concurrent call should be shed")
			}
			if kind := resilience.Classify(err); kind != resilience.KindOverloaded {
				t.Fatalf("shed classified %v (err %v), want Overloaded", kind, err)
			}
			if name == "http" && !strings.Contains(err.Error(), "503") {
				t.Fatalf("http shed answered %v, want status 503", err)
			}
			close(release)
			if err := <-errc; err != nil {
				t.Fatalf("admitted call failed: %v", err)
			}
			// With the slot free the next call is admitted again.
			go func() { <-started }()
			if _, err := p2.Invoke(context.Background(), "block", nil); err != nil {
				t.Fatalf("post-release call failed: %v", err)
			}
		})
	}
}

// TestOverloadedShedFailsOverToNextRung: the shed fault's Overloaded
// classification is retryable-elsewhere, so a ResilientPort advances to
// an unlimited rung instead of failing the call.
func TestOverloadedShedFailsOverToNextRung(t *testing.T) {
	a := &fakePort{kind: wsdl.BindXDR, ep: "busy", fail: 99,
		err: fmt.Errorf("server shed: %w", resilience.ErrOverloaded)}
	b := &fakePort{kind: wsdl.BindSOAP, ep: "idle"}
	p, err := NewResilientPort(testResiliencePolicy(t), a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Non-idempotent op: Overloaded is still safe to retry elsewhere
	// because a shed provably never executed.
	out, err := p.Invoke(context.Background(), "inc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := wire.GetArg(out, "from"); v != "idle" {
		t.Fatalf("from = %v", v)
	}
}
