package invoke

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harness2/internal/container"
	"harness2/internal/resilience"
	"harness2/internal/shmring"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// The Port contract, checked once: a caller cannot tell which binding
// carried a call. Each TestRung* test below (and
// TestStatefulInstanceViaAllBindings) is one row, one behaviour; its
// columns are the rungs Dial opens against one ladderHost, one subtest per
// ladder row. A column that cannot agree says why in its row, and
// DESIGN.md's "Declared cross-binding differences" names the row that pins
// it. FuzzRungsAgree is the differential twin of the values row.

// ladderHost serves one container on every rung of the ladder: local
// (to a caller listing it in LocalContainers), shm where the platform has
// it, XDR, SOAP and HTTP GET. MatMul and Counter are registered; a row
// registers any other class it needs. Its servers record into a disabled
// registry, so a test's registry sees only the client side.
type ladderHost struct {
	c   *container.Container
	hs  *httptest.Server // SOAP under /services/, HTTP GET under /rest/
	xdr *XDRServer
	shm *ShmServer // nil where shmring.Supported() is false
}

func newLadderHost(t testing.TB) *ladderHost {
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
	c.RegisterFactory("MatMul", matmulImpl())
	c.RegisterFactory("Counter", counterImpl())
	mux := http.NewServeMux()
	mux.Handle("/services/", &SOAPHandler{Container: c, Telemetry: off.Telemetry})
	mux.Handle("/rest/", http.StripPrefix("/rest/", &HTTPGetHandler{Container: c, Telemetry: off.Telemetry}))
	hs.Config.Handler = mux
	xs.Retarget(c)
	if ss != nil {
		ss.Retarget(c)
	}
	return &ladderHost{c: c, hs: hs, xdr: xs, shm: ss}
}

func (h *ladderHost) deploy(t testing.TB, class, id string) *wsdl.Definitions {
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

// only returns opts changed so that Dial can open r's rung alone, against
// this host's container.
func (h *ladderHost) only(r *rung, opts Options) Options {
	opts.LocalContainers = []*container.Container{h.c}
	opts.Forbid = nil
	for _, other := range ladder {
		if other.kind != r.kind {
			opts.Forbid = append(opts.Forbid, other.kind)
		}
	}
	return opts
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
			run(t, r, h.only(r, opts))
		})
	}
}

// dial opens defs with opts, wants r's rung at a named endpoint, and
// closes the port without error when the test ends.
func dial(t testing.TB, defs *wsdl.Definitions, r *rung, opts Options) Port {
	t.Helper()
	p, err := Dial(defs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if p.Kind() != r.kind || p.Endpoint() == "" {
		t.Fatalf("dialed %v at %q, want %v", p.Kind(), p.Endpoint(), r.kind)
	}
	return p
}

// rungOf returns the ladder row of kind k.
func rungOf(k wsdl.BindingKind) *rung {
	for i := range ladder {
		if ladder[i].kind == k {
			return &ladder[i]
		}
	}
	panic("no ladder row for " + k.String())
}

var quiet = Options{Telemetry: telemetry.Disabled()}

// TestRungLadderOrder: with each prefix of the ladder forbidden, Dial
// lands on the next row, and the call it opens answers; with every row
// forbidden, Dial fails.
func TestRungLadderOrder(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "MatMul", "m1")
	opts := quiet
	opts.LocalContainers = []*container.Container{h.c}
	for i := range ladder {
		opts := opts
		for _, r := range ladder[:i] {
			opts.Forbid = append(opts.Forbid, r.kind)
		}
		t.Run(ladder[i].label, func(t *testing.T) {
			want := &ladder[i]
			if want.kind == wsdl.BindShm && !shmring.Supported() {
				t.Log("shm column not run: shmring.Supported() is false on this platform; Dial goes on to xdr")
				want = &ladder[i+1]
			}
			p := dial(t, defs, want, opts)
			out, err := p.Invoke(context.Background(), "getResult",
				wire.Args("mata", []float64{1, 2, 3}, "matb", []float64{4, 5, 6}))
			if err != nil {
				t.Fatal(err)
			}
			if res, _ := wire.GetArg(out, "result"); !wire.Equal(res, []float64{4, 10, 18}) {
				t.Fatalf("result = %v", res)
			}
		})
	}
	for _, r := range ladder {
		opts.Forbid = append(opts.Forbid, r.kind)
	}
	if p, err := Dial(defs, opts); err == nil {
		_ = p.Close()
		t.Fatalf("Dial with every rung forbidden opened %v", p.Kind())
	}
}

// echoImpl has one operation per kind in kinds, named after the kind,
// echoing its input v. An absent v echoes as the kind's zero value and is
// counted in absent: that is how an empty array crosses a query string,
// which has no way to spell one.
func echoImpl(kinds []wire.Kind, absent *atomic.Int64) container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		fc := &container.FuncComponent{
			Spec:     wsdl.ServiceSpec{Name: "Echo"},
			Handlers: map[string]container.OpFunc{},
		}
		for _, k := range kinds {
			v := []wsdl.ParamSpec{{Name: "v", Type: k}}
			fc.Spec.Operations = append(fc.Spec.Operations, wsdl.OpSpec{Name: k.String(), Input: v, Output: v})
			fc.Handlers[k.String()] = func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
				if x, ok := wire.GetArg(args, "v"); ok {
					return wire.Args("v", x), nil
				}
				absent.Add(1)
				return wire.Args("v", wire.Zero(k)), nil
			}
		}
		return fc
	})
}

// carried lists the kinds a binding carries, by the one predicate WSDL
// generation and the HTTP GET binding also use.
func carried(b wsdl.BindingKind) []wire.Kind {
	var out []wire.Kind
	for _, k := range wire.Kinds() {
		if b.Carries(k) {
			out = append(out, k)
		}
	}
	return out
}

// echoPort deploys an Echo over every kind r carries and dials it on r.
func echoPort(t testing.TB, h *ladderHost, r *rung, opts Options, absent *atomic.Int64) Port {
	t.Helper()
	class := "Echo-" + r.label
	h.c.RegisterFactory(class, echoImpl(carried(r.kind), absent))
	return dial(t, h.deploy(t, class, "echo-"+r.label), r, opts)
}

// conformanceValues is every kind at its edges: NaN payloads, -0, ±Inf,
// the integer extremes, empty against nil arrays, and empty strings.
func conformanceValues() []any {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8000000000abc)
	nan32 := math.Float32frombits(0x7fc00abc)
	inf := math.Inf(1)
	return []any{
		true, false,
		int32(0), int32(math.MinInt32), int32(math.MaxInt32),
		int64(math.MinInt64), int64(math.MaxInt64),
		float32(negZero), nan32, float32(inf), float32(-inf),
		float32(math.MaxFloat32), float32(-math.MaxFloat32),
		float32(math.SmallestNonzeroFloat32), float32(1.1754944e-38),
		negZero, nan, inf, -inf, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1,
		"", "hello <world> & more", "café", "tab\tinside", " padded ", "a\r\nb",
		[]byte(nil), []byte{}, []byte{0, 1, 255},
		[]bool(nil), []bool{}, []bool{true, false},
		[]int32(nil), []int32{}, []int32{math.MinInt32, -7},
		[]int64(nil), []int64{}, []int64{math.MinInt64},
		[]float32(nil), []float32{}, []float32{nan32, float32(negZero)},
		[]float64(nil), []float64{}, []float64{nan, negZero, -inf},
		[]string(nil), []string{}, []string{""}, []string{"", "a & b", ""},
		wire.NewStruct("Point").Set("x", 1.5).Set("label", "p").Set("tags", []int32{1, 2}),
	}
}

// declared is what a binding of kind b returns for v under the declared
// cross-binding differences (DESIGN.md): every rung but local returns an
// empty array or byte string for a nil one; the text rungs (SOAP, HTTP
// GET) return the canonical NaN for a scalar NaN, and HTTP GET for an
// array element too, since SOAP packs numeric arrays bit for bit; and the
// text rungs hand every string to an XML parser (S18).
func declared(b wsdl.BindingKind, v any) any {
	if b == wsdl.BindJavaObject {
		return v
	}
	text := b == wsdl.BindSOAP || b == wsdl.BindHTTP
	switch x := v.(type) {
	case []byte:
		return append([]byte{}, x...)
	case float32:
		if text && x != x {
			return float32(math.NaN())
		}
	case float64:
		if text && x != x {
			return math.NaN()
		}
	case string:
		if text {
			return xmlText(x)
		}
	case *wire.Struct:
		out := wire.NewStruct(x.Name)
		for _, f := range x.Fields {
			out.Set(f.Name, declared(b, f.Value))
		}
		return out
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Slice {
		return v
	}
	out := reflect.MakeSlice(rv.Type(), rv.Len(), rv.Len())
	for i := range rv.Len() {
		if x := rv.Index(i).Interface(); b != wsdl.BindSOAP || wire.KindOf(x) == wire.KindString {
			out.Index(i).Set(reflect.ValueOf(declared(b, x)))
		} else {
			out.Index(i).Set(rv.Index(i))
		}
	}
	return out.Interface()
}

// xmlText is a string as an XML parser hands it back (DESIGN.md S18):
// CR LF and a lone CR become LF, and leading and trailing white space —
// Unicode's, as strings.TrimSpace has it — goes.
func xmlText(s string) string {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	s = strings.ReplaceAll(s, "\r", "\n")
	return strings.TrimSpace(s)
}

// identical is reflect.DeepEqual with floats compared by their bits, so a
// NaN's payload and the sign of zero count, and nil told from empty.
func identical(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if !va.IsValid() || !vb.IsValid() || va.Type() != vb.Type() {
		return va.IsValid() == vb.IsValid()
	}
	switch x := a.(type) {
	case float32:
		return math.Float32bits(x) == math.Float32bits(b.(float32))
	case float64:
		return math.Float64bits(x) == math.Float64bits(b.(float64))
	case []float32, []float64:
		if va.IsNil() != vb.IsNil() || va.Len() != vb.Len() {
			return false
		}
		for i := range va.Len() {
			if !identical(va.Index(i).Interface(), vb.Index(i).Interface()) {
				return false
			}
		}
		return true
	case *wire.Struct:
		y := b.(*wire.Struct)
		if x.Name != y.Name || len(x.Fields) != len(y.Fields) {
			return false
		}
		for i, f := range x.Fields {
			if f.Name != y.Fields[i].Name || !identical(f.Value, y.Fields[i].Value) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// show renders v for a failure message, a scalar float by its bits.
func show(v any) string {
	switch x := v.(type) {
	case float32:
		return fmt.Sprintf("float32 %#08x", math.Float32bits(x))
	case float64:
		return fmt.Sprintf("float64 %#016x", math.Float64bits(x))
	}
	return fmt.Sprintf("%#v", v)
}

// agrees reports whether got is what a rung of kind b may return for v:
// v exactly, or v under the declared differences.
func agrees(b wsdl.BindingKind, v, got any) bool {
	return identical(got, v) || identical(got, declared(b, v))
}

// echo sends v through p's echo of its kind and returns what came back; a
// call that has not returned in 5 s fails.
func echo(p Port, v any) (any, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := p.Invoke(ctx, wire.KindOf(v).String(), wire.Args("v", v))
	if err != nil {
		return nil, err
	}
	if len(out) != 1 || out[0].Name != "v" {
		return nil, fmt.Errorf("echo returned %v", out)
	}
	return out[0].Value, nil
}

// TestRungValuesBitExact: every value of every kind a rung carries comes
// back bit-exact, or as the declared differences say. Arrays wider than
// the 32 KiB stream buffers and than the shm ring cross while small calls
// interleave on the same port. HTTP GET sends an empty array as no
// parameter at all; an array whose query would not fit the server's 1 MiB
// request header is refused, never truncated.
func TestRungValuesBitExact(t *testing.T) {
	t.Parallel() // its host's close waits out net/http's 500 ms after the refused query
	h := newLadderHost(t)
	h.rungs(t, quiet, func(t *testing.T, r *rung, opts Options) {
		var absent atomic.Int64
		p := echoPort(t, h, r, opts, &absent)
		empties := 0
		for _, v := range conformanceValues() {
			if !r.kind.Carries(wire.KindOf(v)) {
				continue
			}
			got, err := echo(p, v)
			if err != nil {
				t.Fatalf("%s: %v", show(v), err)
			}
			if !agrees(r.kind, v, got) {
				t.Errorf("sent %s, got back %s", show(v), show(got))
			}
			if wire.KindOf(v).IsArray() && wire.Len(v) == 0 {
				empties++
			}
		}
		if r.kind != wsdl.BindHTTP {
			empties = 0 // only a query string cannot spell an empty array
		}
		if n := absent.Load(); n != int64(empties) {
			t.Errorf("operation saw %d absent arguments, want %d", n, empties)
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := int64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					v := int64(g)<<32 | i
					if got, err := echo(p, v); err != nil || got != v {
						t.Errorf("small call %d beside a wide one: %v, %v", v, got, err)
						return
					}
				}
			}(g)
		}
		rnd := rand.New(rand.NewSource(1))
		for _, n := range []int{xdrBufSize/8 + 1, shmring.DefaultRingBytes/8 + 1} {
			v := randDoubles(rnd, n)
			got, err := echo(p, v)
			switch {
			case r.kind == wsdl.BindHTTP && n*8 > 1<<20:
				if err == nil || !strings.Contains(err.Error(), "431") {
					t.Errorf("%d doubles in one query: %d back, err %v; want 431", n, wire.Len(got), err)
				}
			case err != nil:
				t.Errorf("%d doubles: %v", n, err)
			case !agrees(r.kind, v, got):
				t.Errorf("%d doubles came back different", n)
			}
		}
		close(stop)
		wg.Wait()
	})
}

// TestStatefulInstanceViaAllBindings: one stateful Counter accumulates
// across every rung — each binding addresses the same pinned instance.
func TestStatefulInstanceViaAllBindings(t *testing.T) {
	h := newLadderHost(t)
	defs := h.deploy(t, "Counter", "c1")
	var total int64
	h.rungs(t, quiet, func(t *testing.T, r *rung, opts Options) {
		p := dial(t, defs, r, opts)
		for i := 0; i < 2; i++ {
			if total += 2; incBy(t, p, 2) != total {
				t.Fatalf("total is not %d", total)
			}
		}
	})
}

// faultyImpl answers ping, and fails fail with an error of its own.
func faultyImpl(ran *atomic.Int64) container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Faulty", Operations: []wsdl.OpSpec{
				{Name: "ping", Output: []wsdl.ParamSpec{{Name: "ok", Type: wire.KindInt32}}},
				{Name: "fail", Output: []wsdl.ParamSpec{{Name: "ok", Type: wire.KindInt32}}},
			}},
			Handlers: map[string]container.OpFunc{
				"ping": func(context.Context, []wire.Arg) ([]wire.Arg, error) {
					ran.Add(1)
					return wire.Args("ok", int32(1)), nil
				},
				"fail": func(context.Context, []wire.Arg) ([]wire.Arg, error) {
					ran.Add(1)
					return nil, errors.New("faulty: refused on purpose")
				},
			},
		}
	})
}

// illegalImpl's say returns a string XML 1.0 cannot hold.
func illegalImpl() container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Illegal", Operations: []wsdl.OpSpec{
				{Name: "say", Output: []wsdl.ParamSpec{{Name: "s", Type: wire.KindString}}},
			}},
			Handlers: map[string]container.OpFunc{
				"say": func(context.Context, []wire.Arg) ([]wire.Arg, error) { return wire.Args("s", "a\x01b"), nil },
			},
		}
	})
}

// uncarried returns a value of the first kind b does not carry.
func uncarried(b wsdl.BindingKind) (any, bool) {
	for _, v := range conformanceValues() {
		if !b.Carries(wire.KindOf(v)) {
			return v, true
		}
	}
	return nil, false
}

// TestRungFaultsClassifyAlike: an unknown operation, an unknown instance
// and a component's own error fail on every rung, classify as they do on
// the local call (resilience.Classify), carry the component's message,
// and leave the port working. errors.Is(container.ErrNoInstance) holds on
// the local rung alone: the wire bindings carry a fault's text, not its
// identity. An argument the rung cannot carry is refused before the
// wire — the component never runs — on every rung that has such a kind,
// and so is a string XML 1.0 cannot hold on the text rungs, whose servers
// answer a result holding one with a Server fault.
func TestRungFaultsClassifyAlike(t *testing.T) {
	h := newLadderHost(t)
	var ran atomic.Int64
	h.c.RegisterFactory("Faulty", faultyImpl(&ran))
	h.c.RegisterFactory("Illegal", illegalImpl())
	ctx := context.Background()
	localErr := func(id, op string) error {
		_, err := h.c.Invoke(ctx, id, op, nil)
		if err == nil {
			t.Fatalf("local %s.%s did not fail", id, op)
		}
		return err
	}
	h.rungs(t, quiet, func(t *testing.T, r *rung, opts Options) {
		id := "f-" + r.label
		p := dial(t, h.deploy(t, "Faulty", id), r, opts)
		works := func(after string) {
			t.Helper()
			if _, err := p.Invoke(ctx, "ping", nil); err != nil {
				t.Fatalf("call after %s: %v", after, err)
			}
		}
		check := func(what string, err, local error, text string) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s: no error", what)
			}
			if got, want := resilience.Classify(err), resilience.Classify(local); got != want {
				t.Errorf("%s classified %v, local %v (%v)", what, got, want, err)
			}
			if !strings.Contains(err.Error(), text) {
				t.Errorf("%s: %q does not carry %q", what, err, text)
			}
		}

		_, err := p.Invoke(ctx, "nosuch", nil)
		check("unknown op", err, localErr(id, "nosuch"), "nosuch")
		works("an unknown op")

		_, err = p.Invoke(ctx, "fail", nil)
		check("component error", err, localErr(id, "fail"), "faulty: refused on purpose")
		works("a component error")

		if err := h.c.Undeploy(id); err != nil {
			t.Fatal(err)
		}
		_, err = p.Invoke(ctx, "ping", nil)
		check("unknown instance", err, localErr(id, "ping"), id)
		if is := errors.Is(err, container.ErrNoInstance); is != (r.kind == wsdl.BindJavaObject) {
			t.Errorf("errors.Is(ErrNoInstance) = %v on %s (declared: local only)", is, r.label)
		}
		h.deploy(t, "Faulty", id)
		works("an unknown instance came back")

		var refused []any
		if v, ok := uncarried(r.kind); ok {
			refused = append(refused, v)
		}
		if r.kind == wsdl.BindSOAP || r.kind == wsdl.BindHTTP {
			refused = append(refused, "\x01", "\xff", "\ufffe") // outside XML 1.0's Char
			_, err := dial(t, h.deploy(t, "Illegal", "i-"+r.label), r, opts).Invoke(ctx, "say", nil)
			check("XML-illegal result", err, localErr(id, "fail"), "xmlq.ValidChars")
		}
		if len(refused) == 0 {
			t.Logf("%s carries every value: nothing to refuse", r.label)
			return
		}
		for _, v := range refused {
			before := ran.Load()
			if _, err := p.Invoke(ctx, "ping", wire.Args("v", v)); err == nil {
				t.Fatalf("%v argument %s went through", wire.KindOf(v), show(v))
			}
			if n := ran.Load() - before; n != 0 {
				t.Fatalf("refused %v argument %s reached the component %d time(s)", wire.KindOf(v), show(v), n)
			}
			works("a refused argument")
		}
	})
}

// TestRungConcurrentCallersExactTotal: callers sharing one port and
// callers each on their own port, all at once, add up exactly.
func TestRungConcurrentCallersExactTotal(t *testing.T) {
	h := newLadderHost(t)
	h.rungs(t, quiet, func(t *testing.T, r *rung, opts Options) {
		id := "c-" + r.label
		defs := h.deploy(t, "Counter", id)
		shared := dial(t, defs, r, opts)
		const shares, owners, calls = 16, 4, 25
		incAll(t, shares+owners, calls, func(g int) Port {
			if g < shares {
				return shared
			}
			return dial(t, defs, r, opts)
		})
		if got := incBy(t, &LocalPort{Container: h.c, Instance: id}, 0); got != (shares+owners)*calls {
			t.Fatalf("total = %d, want %d", got, (shares+owners)*calls)
		}
	})
}

// incAll runs callers goroutines at once, each making calls Counter incs
// by 1 on the port port(g) gives caller g; any error fails the test.
func incAll(t *testing.T, callers, calls int, port func(g int) Port) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		p := port(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := p.Invoke(context.Background(), "inc", wire.Args("by", int64(1))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// incBy adds by to the Counter behind p and returns its new total.
func incBy(t *testing.T, p Port, by int64) int64 {
	t.Helper()
	out, err := p.Invoke(context.Background(), "inc", wire.Args("by", by))
	if err != nil {
		t.Fatal(err)
	}
	total, _ := wire.GetArg(out, "total")
	return total.(int64)
}

// gatePort registers a Gate class of its own on h, deploys it as id and
// dials it on r; the gate opens when the test ends, if not before.
func gatePort(t *testing.T, h *ladderHost, r *rung, opts Options, id string) (p Port, started <-chan struct{}, release func()) {
	t.Helper()
	st := make(chan struct{}, 16)
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	h.c.RegisterFactory("Gate-"+id, gateImpl(gate, st))
	return dial(t, h.deploy(t, "Gate-"+id, id), r, opts), st, release
}

// goInvoke starts n calls of op on p under ctx and returns the channel
// each call's error lands on.
func goInvoke(ctx context.Context, p Port, op string, n int) <-chan error {
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := p.Invoke(ctx, op, nil)
			done <- err
		}()
	}
	return done
}

// TestRungSlowCallDoesNotBlockFast: while calls are stuck executing on
// the server, a fast call on the same port completes.
func TestRungSlowCallDoesNotBlockFast(t *testing.T) {
	h := newLadderHost(t)
	h.rungs(t, quiet, func(t *testing.T, r *rung, opts Options) {
		p, started, release := gatePort(t, h, r, opts, "g-"+r.label)
		const slow = 3
		done := goInvoke(context.Background(), p, "wait", slow)
		for i := 0; i < slow; i++ {
			within(t, started, "every slow call executing at once")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := p.Invoke(ctx, "ping", nil); err != nil {
			t.Fatalf("fast call behind slow ones: %v", err)
		}
		select {
		case err := <-done:
			t.Fatalf("slow call returned before the gate opened: %v", err)
		default:
		}
		release()
		for i := 0; i < slow; i++ {
			if err := within(t, done, "a released slow call"); err != nil {
				t.Fatalf("slow call: %v", err)
			}
		}
	})
}

// TestRungServerCloseFailsInFlight: calls executing when their server
// closes get an error — never a hang, never a value — and so does the
// next call; callers streaming through the close and the port's Close
// racing them all return. The local rung has no server to close.
func TestRungServerCloseFailsInFlight(t *testing.T) {
	h := newLadderHost(t)
	h.rungs(t, quiet, func(t *testing.T, r *rung, opts Options) {
		if r.kind == wsdl.BindJavaObject {
			t.Log("local column not run: an in-process call has no server to close")
			return
		}
		h := newLadderHost(t) // closed below: one per column
		p, started, _ := gatePort(t, h, r, h.only(r, opts), "g1")
		ctx, stop := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					_, _ = p.Invoke(ctx, "ping", nil) // fails once the server is gone
				}
			}()
		}
		for _, err := range inFlightAtClose(t, h, p, started, 4) {
			if err == nil {
				t.Fatal("a call in flight when its server closed returned a value")
			}
		}
		if err := within(t, goInvoke(context.Background(), p, "ping", 1), "a call after close"); err == nil {
			t.Fatal("a call after its server closed returned a value")
		}
		_ = p.Close() // racing the streaming callers
		stop()
		wg.Wait()
		if _, err := p.Invoke(context.Background(), "ping", nil); err == nil {
			t.Fatal("a call on its closed port returned a value")
		}
	})
}

// inFlightAtClose starts n calls on p that execute until released, closes
// the server of p's rung under them, and returns what each call got back.
func inFlightAtClose(t *testing.T, h *ladderHost, p Port, started <-chan struct{}, n int) []error {
	t.Helper()
	done := goInvoke(context.Background(), p, "wait", n)
	for i := 0; i < n; i++ {
		within(t, started, "every call executing")
	}
	switch p.Kind() {
	case wsdl.BindShm:
		_ = h.shm.Close()
	case wsdl.BindXDR:
		_ = h.xdr.Close()
	default:
		_ = h.hs.Config.Close() // every connection now, without waiting for handlers
	}
	errs := make([]error, n)
	for i := range errs {
		errs[i] = within(t, done, "a call in flight at close")
	}
	return errs
}

// TestRungUnsentOnlyIfNothingSent: a binary rung marks a failure
// resilience.MarkUnsent iff no byte of the request reached the transport.
// A fresh port to a server closed before its first dial fails unsent, and
// so does a call after its server closed; a call in flight at the close
// does not. The local and text rungs never mark unsent (DESIGN.md §7).
func TestRungUnsentOnlyIfNothingSent(t *testing.T) {
	h := newLadderHost(t)
	h.rungs(t, quiet, func(t *testing.T, r *rung, opts Options) {
		if r.kind != wsdl.BindXDR && r.kind != wsdl.BindShm {
			t.Logf("%s column not run: the rung never marks a failure unsent", r.label)
			return
		}
		h := newLadderHost(t) // closed below: one per column
		p, started, _ := gatePort(t, h, r, h.only(r, opts), "g1")
		var fresh Port = NewXDRPort(h.xdr.Addr(), "g1", quiet)
		if r.kind == wsdl.BindShm {
			sp, err := NewShmPort(h.shm.Addr(), "g1")
			if err != nil {
				t.Fatal(err)
			}
			fresh = sp
		}
		defer fresh.Close()
		for _, err := range inFlightAtClose(t, h, p, started, 4) {
			if err == nil || resilience.IsUnsent(err) {
				t.Errorf("call in flight at close: %v, want an error not marked unsent", err)
			}
		}
		for what, p := range map[string]Port{"fresh port's first call": fresh, "call after close": p} {
			if _, err := p.Invoke(context.Background(), "ping", nil); !resilience.IsUnsent(err) {
				t.Errorf("%s: %v, want an error marked unsent", what, err)
			}
		}
	})
}

// TestRungCancelMidCall: callers that cancel calls executing on the
// server each get their context's error, and the next call on the port
// succeeds. On the binary rungs, which own every goroutine of a call, the
// connection's calls table then drains to zero and the goroutine count
// returns to its baseline, taken once the port has dialed.
func TestRungCancelMidCall(t *testing.T) {
	h := newLadderHost(t)
	h.rungs(t, quiet, func(t *testing.T, r *rung, opts Options) {
		p, started, release := gatePort(t, h, r, opts, "cancel-"+r.label)
		if _, err := p.Invoke(context.Background(), "ping", nil); err != nil {
			t.Fatal(err)
		}
		baseline := goroutineCount()
		const n = 8
		ctx, cancel := context.WithCancel(context.Background())
		done := goInvoke(ctx, p, "wait", n)
		for i := 0; i < n; i++ {
			within(t, started, "every call executing")
		}
		cancel()
		for i := 0; i < n; i++ {
			if err := within(t, done, "a cancelled call"); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled call: %v, want context.Canceled", err)
			}
		}
		release()
		if _, err := p.Invoke(context.Background(), "ping", nil); err != nil {
			t.Fatalf("call after the cancelled ones: %v", err)
		}
		var tbl *calls
		switch b := bare(p).(type) {
		case *XDRPort:
			tbl = &b.mc.calls
		case *ShmPort:
			tbl = &b.cur.calls
		default:
			t.Logf("%s column counts no calls table or goroutines", r.label)
			return
		}
		awaitGoroutines(t, 5*time.Second, fmt.Sprintf("cancelled calls left behind (baseline %d goroutines)", baseline),
			func(n int) bool {
				tbl.mu.Lock()
				defer tbl.mu.Unlock()
				return len(tbl.pending) == 0 && n <= baseline+2
			})
	})
}

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

// TestRungServerChurnNoLeak: restarting a binary rung's server, with
// calls in flight or not, then calling the dead server and closing the
// port, leaves no goroutine behind on either side. The text rungs share
// net/http's process-wide keep-alive pool, whose idle connections outlive
// any one server, so a goroutine count measures nothing there; the local
// rung has no server.
func TestRungServerChurnNoLeak(t *testing.T) {
	h := newLadderHost(t)
	h.deploy(t, "Counter", "c1")
	off := ServerOptions{Telemetry: telemetry.Disabled()}
	h.rungs(t, quiet, func(t *testing.T, r *rung, opts Options) {
		if r.kind != wsdl.BindXDR && r.kind != wsdl.BindShm {
			t.Logf("%s column not run: only the binary rungs own every goroutine of a call", r.label)
			return
		}
		round := func(killMidFlight bool) {
			var addr string
			var closeServer func() error
			if r.kind == wsdl.BindXDR {
				xs, err := NewXDRServer(h.c, "127.0.0.1:0", off)
				if err != nil {
					t.Fatal(err)
				}
				addr, closeServer = xs.Addr(), xs.Close
			} else {
				ss, err := NewShmServer(h.c, "", off)
				if err != nil {
					t.Fatal(err)
				}
				addr, closeServer = ss.Addr(), ss.Close
			}
			defs, err := h.c.WSDLFor("c1")
			if err != nil {
				t.Fatal(err)
			}
			defs.PortsByKind(r.kind)[0].Port.Address = addr
			p, err := Dial(defs, opts)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						// Errors are expected once the server dies; what is
						// under test is unwinding, not success.
						_, _ = p.Invoke(context.Background(), "inc", wire.Args("by", int64(1)))
					}
				}()
			}
			if killMidFlight {
				_ = closeServer()
			}
			wg.Wait()
			if !killMidFlight {
				_ = closeServer()
			}
			// A call against the dead server takes the dial-failure and
			// dead-connection paths.
			_, _ = p.Invoke(context.Background(), "inc", wire.Args("by", int64(1)))
			_ = p.Close()
		}

		round(false) // warm lazy singletons before taking the baseline
		baseline := goroutineCount()
		for i := 0; i < 4; i++ {
			round(i%2 == 0)
		}
		awaitGoroutines(t, 5*time.Second, fmt.Sprintf("goroutines leaked (baseline %d)", baseline),
			func(n int) bool { return n <= baseline+2 }) // scheduler jitter tolerance
	})
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
	h := newLadderHost(t)
	h.c.RegisterFactory("Probe", probeImpl(&ticks))
	defs := h.deploy(t, "Probe", "p1")
	h.rungs(t, quiet, func(t *testing.T, r *rung, opts Options) {
		p := dial(t, defs, r, opts)
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
	t.Parallel() // five 100 ms deadlines
	var ticks atomic.Int64
	h := newLadderHost(t)
	h.c.RegisterFactory("Probe", probeImpl(&ticks))
	defs := h.deploy(t, "Probe", "p1")
	h.rungs(t, quiet, func(t *testing.T, r *rung, opts Options) {
		p := dial(t, defs, r, opts)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := p.Invoke(ctx, "nap", nil)
		if took := time.Since(start); took > time.Second {
			t.Fatalf("call returned after %v, want < 1s", took)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
}

// fuzzValue builds one value of the kind kind picks out of wire.Kinds():
// a scalar from bits, a string from s, a string array from s split at
// commas, a struct from all three, and any other array from raw read as
// big-endian elements (a nil one when raw is empty and bits odd).
func fuzzValue(kind uint8, bits uint64, s string, raw []byte) any {
	kinds := wire.Kinds()
	switch k := kinds[int(kind)%len(kinds)]; k {
	case wire.KindBool:
		return bits&1 == 1
	case wire.KindInt32:
		return int32(bits)
	case wire.KindInt64:
		return int64(bits)
	case wire.KindFloat32:
		return math.Float32frombits(uint32(bits))
	case wire.KindFloat64:
		return math.Float64frombits(bits)
	case wire.KindString:
		return s
	case wire.KindStringArray:
		if s == "" {
			return []string{}
		}
		return strings.Split(s, ",")
	case wire.KindStruct:
		return wire.NewStruct("S").Set("x", math.Float64frombits(bits)).Set("s", s).Set("raw", raw)
	default:
		typ := reflect.TypeOf(wire.Zero(k))
		if len(raw) == 0 && bits&1 == 1 {
			return reflect.Zero(typ).Interface()
		}
		n := len(raw) / int(typ.Elem().Size())
		out := reflect.MakeSlice(typ, n, n).Interface()
		_ = binary.Read(bytes.NewReader(raw), binary.BigEndian, out)
		return out
	}
}

// FuzzRungsAgree is the values row as a differential: one fuzzed value
// goes through every rung that carries its kind, and each returns exactly
// what the local rung returns, that value under the declared differences
// (DESIGN.md), or an error — never another value.
func FuzzRungsAgree(f *testing.F) {
	h := newLadderHost(f)
	type column struct {
		r *rung
		p Port
	}
	var cols []column
	var absent atomic.Int64
	for i := range ladder {
		r := &ladder[i]
		if r.kind == wsdl.BindShm && !shmring.Supported() {
			f.Log("shm column not run: shmring.Supported() is false on this platform")
			continue
		}
		cols = append(cols, column{r, echoPort(f, h, r, h.only(r, quiet), &absent)})
	}
	f.Fuzz(func(t *testing.T, kind uint8, bits uint64, s string, raw []byte) {
		v := fuzzValue(kind, bits, s, raw)
		want, err := echo(cols[0].p, v)
		if err != nil {
			t.Fatalf("local: %v", err)
		}
		for _, c := range cols[1:] {
			if !c.r.kind.Carries(wire.KindOf(v)) {
				continue
			}
			got, err := echo(c.p, v)
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				t.Errorf("%s: %s: %v", c.r.label, show(v), err)
			case err == nil && !agrees(c.r.kind, want, got):
				t.Errorf("%s: sent %s, got back %s", c.r.label, show(v), show(got))
			}
		}
	})
}
