package invoke

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"harness2/internal/container"
	"harness2/internal/shmring"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

func matmulImpl() container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.MatMulSpec(),
			Handlers: map[string]container.OpFunc{
				"getResult": func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
					av, _ := wire.GetArg(args, "mata")
					bv, _ := wire.GetArg(args, "matb")
					a := av.([]float64)
					b := bv.([]float64)
					out := make([]float64, len(a))
					for i := range a {
						if i < len(b) {
							out[i] = a[i] * b[i]
						}
					}
					return wire.Args("result", out), nil
				},
			},
		}
	})
}

func counterImpl() container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		var mu sync.Mutex
		var n int64
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Counter", Operations: []wsdl.OpSpec{
				{Name: "inc", Input: []wsdl.ParamSpec{{Name: "by", Type: wire.KindInt64}},
					Output: []wsdl.ParamSpec{{Name: "total", Type: wire.KindInt64}}},
			}},
			Handlers: map[string]container.OpFunc{
				"inc": func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
					by, _ := wire.GetArg(args, "by")
					mu.Lock()
					defer mu.Unlock()
					n += by.(int64)
					return wire.Args("total", n), nil
				},
			},
		}
	})
}

func TestDialPrefersLocal(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "MatMul", "m1")
	p := dial(t, defs, rungOf(wsdl.BindJavaObject), Options{LocalContainers: []*container.Container{h.c}})
	out, err := p.Invoke(context.Background(), "getResult",
		wire.Args("mata", []float64{1, 2, 3}, "matb", []float64{4, 5, 6}))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := wire.GetArg(out, "result")
	if !wire.Equal(res, []float64{4, 10, 18}) {
		t.Fatalf("result = %v", res)
	}
}

func TestDialFallsBackToXDRWhenNotColocated(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "MatMul", "m1")
	p := dial(t, defs, rungOf(wsdl.BindXDR), Options{Forbid: []wsdl.BindingKind{wsdl.BindShm}}) // no local containers
	out, err := p.Invoke(context.Background(), "getResult",
		wire.Args("mata", []float64{2}, "matb", []float64{8}))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := wire.GetArg(out, "result")
	if !wire.Equal(res, []float64{16}) {
		t.Fatalf("result = %v", res)
	}
}

func TestDialSOAPWhenXDRForbidden(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "MatMul", "m1")
	p := dial(t, defs, rungOf(wsdl.BindSOAP), Options{Forbid: []wsdl.BindingKind{wsdl.BindShm, wsdl.BindXDR, wsdl.BindJavaObject}})
	out, err := p.Invoke(context.Background(), "getResult",
		wire.Args("mata", []float64{3}, "matb", []float64{3}))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := wire.GetArg(out, "result")
	if !wire.Equal(res, []float64{9}) {
		t.Fatalf("result = %v", res)
	}
}

func TestOpenAllReturnsAllBindings(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "MatMul", "m1")
	ports := OpenAll(defs, Options{LocalContainers: []*container.Container{h.c}})
	want := map[wsdl.BindingKind]bool{}
	for _, r := range ladder {
		if r.kind != wsdl.BindShm || shmring.Supported() {
			want[r.kind] = true
		}
	}
	if len(ports) != len(want) {
		t.Fatalf("ports = %d, want %d", len(ports), len(want))
	}
	kinds := map[wsdl.BindingKind]bool{}
	ctx := context.Background()
	for _, p := range ports {
		kinds[p.Kind()] = true
		out, err := p.Invoke(ctx, "getResult", wire.Args("mata", []float64{1}, "matb", []float64{7}))
		if err != nil {
			t.Fatalf("[%v] %v", p.Kind(), err)
		}
		res, _ := wire.GetArg(out, "result")
		if !wire.Equal(res, []float64{7}) {
			t.Fatalf("[%v] result = %v", p.Kind(), res)
		}
		_ = p.Close()
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
}

func TestXDRConnectionReuse(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "Counter", "c1")
	ref := defs.PortsByKind(wsdl.BindXDR)
	if len(ref) != 1 {
		t.Fatalf("xdr ports = %d", len(ref))
	}
	p := NewXDRPort(ref[0].Port.Address, "c1", Options{})
	defer p.Close()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := p.Invoke(ctx, "inc", wire.Args("by", int64(1))); err != nil {
			t.Fatal(err)
		}
	}
	out, err := p.Invoke(ctx, "inc", wire.Args("by", int64(0)))
	if err != nil {
		t.Fatal(err)
	}
	total, _ := wire.GetArg(out, "total")
	if total.(int64) != 10 {
		t.Fatalf("total = %v", total)
	}
}

func TestXDRReconnectAfterServerRestart(t *testing.T) {
	// After the server drops a pooled connection, the port must recover
	// on a fresh connection without ever double-invoking: either the dead
	// connection is detected before sending (transparent), or the call
	// surfaces an error and the *next* call succeeds. The counter proves
	// exactly one server-side increment per successful call.
	h := newLadderHost(t)
	defs := h.deploy(t, "Counter", "c1")
	ref := defs.PortsByKind(wsdl.BindXDR)
	p := NewXDRPort(ref[0].Port.Address, "c1", Options{})
	defer p.Close()
	ctx := context.Background()
	if _, err := p.Invoke(ctx, "inc", wire.Args("by", int64(1))); err != nil {
		t.Fatal(err)
	}
	// Kill the pooled connection server-side.
	h.xdr.mu.Lock()
	for conn := range h.xdr.conns {
		_ = conn.Close()
	}
	h.xdr.mu.Unlock()
	var successes int64 = 1 // the call before the kill
	var lastTotal int64
	for attempt := 0; attempt < 10; attempt++ {
		out, err := p.Invoke(ctx, "inc", wire.Args("by", int64(1)))
		if err != nil {
			continue // ambiguous-outcome error is acceptable once
		}
		successes++
		total, _ := wire.GetArg(out, "total")
		lastTotal = total.(int64)
		break
	}
	if lastTotal == 0 {
		t.Fatal("port never recovered after peer close")
	}
	if lastTotal != successes {
		t.Fatalf("total = %d after %d successful calls (silent retry double-invoked?)",
			lastTotal, successes)
	}
}

func TestXDRRejectsNonNumericArgs(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "Counter", "c1")
	ref := defs.PortsByKind(wsdl.BindXDR)
	p := NewXDRPort(ref[0].Port.Address, "c1", Options{})
	defer p.Close()
	_, err := p.Invoke(context.Background(), "inc", wire.Args("by", "a string"))
	if err == nil {
		t.Fatal("XDR port must reject non-numeric arguments")
	}
}

func TestXDRFaults(t *testing.T) {
	h := newLadderHost(t)
	h.deploy(t, "Counter", "c1")
	defs := h.deploy(t, "Counter", "c2")
	ref := defs.PortsByKind(wsdl.BindXDR)
	ctx := context.Background()

	ghost := NewXDRPort(ref[0].Port.Address, "ghost", Options{})
	defer ghost.Close()
	if _, err := ghost.Invoke(ctx, "inc", wire.Args("by", int64(1))); err == nil ||
		!strings.Contains(err.Error(), "no such instance") {
		t.Fatalf("err = %v", err)
	}
	p := NewXDRPort(ref[0].Port.Address, "c2", Options{})
	defer p.Close()
	if _, err := p.Invoke(ctx, "nosuchop", nil); err == nil {
		t.Fatal("unknown op should fault")
	}
	// Faults must not poison the connection.
	if _, err := p.Invoke(ctx, "inc", wire.Args("by", int64(1))); err != nil {
		t.Fatalf("call after fault: %v", err)
	}
}

func TestSOAPHandlerErrors(t *testing.T) {
	h := newLadderHost(t)
	h.deploy(t, "Counter", "c1")
	// Unknown instance via SOAP.
	p := &SOAPPort{URL: h.hs.URL + "/services/ghost"}
	if _, err := p.Invoke(context.Background(), "inc", wire.Args("by", int64(1))); err == nil {
		t.Fatal("unknown instance should fault")
	}
	// Bad path (no instance).
	p2 := &SOAPPort{URL: h.hs.URL + "/"}
	if _, err := p2.Invoke(context.Background(), "inc", nil); err == nil {
		t.Fatal("missing instance segment should fault")
	}
}

func TestParseLocalAddress(t *testing.T) {
	c, i, err := ParseLocalAddress("local:node1/m1")
	if err != nil || c != "node1" || i != "m1" {
		t.Fatalf("got %q %q %v", c, i, err)
	}
	// The instance keeps everything after the first separator.
	c, i, err = ParseLocalAddress("local:n/a/b")
	if err != nil || c != "n" || i != "a/b" {
		t.Fatalf("got %q %q %v", c, i, err)
	}
	for _, bad := range []string{
		"http://x",            // wrong scheme
		"",                    // empty
		"local",               // scheme without colon
		"Local:node1/m1",      // scheme is case-sensitive
		" local:node1/m1",     // leading whitespace is not trimmed
		"local:",              // nothing after scheme
		"local:onlycontainer", // no separator
		"local:/inst",         // empty container
		"local:c/",            // empty instance
		"local:/",             // both empty
	} {
		if _, _, err := ParseLocalAddress(bad); err == nil {
			t.Errorf("ParseLocalAddress(%q) should fail", bad)
		}
	}
}

func TestDialNoUsablePort(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "MatMul", "m1")
	_, err := Dial(defs, Options{Forbid: wsdl.BindingKinds()})
	if err == nil {
		t.Fatal("Dial with everything forbidden should fail")
	}
}

func TestCallOperation(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "Counter", "c1")
	p, err := Dial(defs, Options{LocalContainers: []*container.Container{h.c}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := CallOperation(context.Background(), p, "inc", wire.Args("by", int64(4)), "total")
	if err != nil || v.(int64) != 4 {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if _, err := CallOperation(context.Background(), p, "inc", wire.Args("by", int64(1)), "missing"); err == nil {
		t.Fatal("missing result name should error")
	}
}

func TestConcurrentXDRClients(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "Counter", "c1")
	ref := defs.PortsByKind(wsdl.BindXDR)
	incAll(t, 8, 25, func(int) Port {
		p := NewXDRPort(ref[0].Port.Address, "c1", Options{})
		t.Cleanup(func() { _ = p.Close() })
		return p
	})
	inst, _ := h.c.Instance("c1")
	if total := incBy(t, &LocalPort{Container: h.c, Instance: "c1"}, 0); total != 200 {
		t.Fatalf("total = %d (invocations=%d)", total, inst.Invocations())
	}
}
