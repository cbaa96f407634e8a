package invoke

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"

	"harness2/internal/container"
	"harness2/internal/shmring"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
	"harness2/internal/xdr"
)

// The borrow contract (container.Component): on the XDR and shm servers a
// request's arrays are lent to the component out of the worker's arena for
// the length of its Invoke. These tests hold the two things that makes
// delicate: a result that aliases an argument must be encoded before the
// arena is reused, and nothing decoded for one request may be visible to
// another.

// borrowImpl is a component whose results alias its arguments — the shape
// of the benchmark's echo1k: `echo` returns its argument slice as its
// result, `echoAll` does so for one array of every kind the wire carries.
func borrowImpl() container.Factory {
	echo := func(_ context.Context, args []wire.Arg) ([]wire.Arg, error) { return args, nil }
	arr := []wsdl.ParamSpec{{Name: "data", Type: wire.KindFloat64Array}}
	all := []wsdl.ParamSpec{
		{Name: "f64", Type: wire.KindFloat64Array}, {Name: "i64", Type: wire.KindInt64Array},
		{Name: "f32", Type: wire.KindFloat32Array}, {Name: "i32", Type: wire.KindInt32Array},
		{Name: "raw", Type: wire.KindBytes}, {Name: "flags", Type: wire.KindBoolArray},
	}
	return container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Borrow", Operations: []wsdl.OpSpec{
				{Name: "echo", Input: arr, Output: arr},
				{Name: "echoAll", Input: all, Output: all},
			}},
			Handlers: map[string]container.OpFunc{"echo": echo, "echoAll": echo},
		}
	})
}

// borrowPorts deploys the test components behind an XDR and (where
// supported) a shm server; see borrowPortsOn.
func borrowPorts(t *testing.T, instance string) map[string]Port {
	t.Helper()
	c := container.New(container.Config{Name: "borrow"})
	c.RegisterFactory("Borrow", borrowImpl())
	c.RegisterFactory("MatMul", matmulImpl())
	for class, id := range map[string]string{"Borrow": "b1", "MatMul": "m1"} {
		if _, _, err := c.Deploy(class, id); err != nil {
			t.Fatal(err)
		}
	}
	return borrowPortsOn(t, c, instance)
}

// borrowPortsOn serves c and returns a port per server-side code path: mux
// workers on the socket, ring workers on shm.
func borrowPortsOn(t *testing.T, c *container.Container, instance string) map[string]Port {
	t.Helper()
	xs, err := NewXDRServer(c, "127.0.0.1:0", ServerOptions{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = xs.Close() })
	ports := map[string]Port{"xdr": NewXDRPort(xs.Addr(), instance, Options{})}
	if shmring.Supported() {
		ss, err := NewShmServer(c, "", ServerOptions{Telemetry: telemetry.Disabled()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ss.Close() })
		sp, err := NewShmPort(ss.Addr(), instance)
		if err != nil {
			t.Fatal(err)
		}
		ports["shm"] = sp
	}
	for _, p := range ports {
		p := p
		t.Cleanup(func() { _ = p.Close() })
	}
	return ports
}

// randDoubles fills a slice with arbitrary bit patterns — NaN payloads,
// infinities and denormals included — so "byte-exact" means the bits.
func randDoubles(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(r.Uint64())
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// borrowSizes mixes frames under and over every buffer the path keeps:
// the 32 KiB bufio, the pooled frame buffers, a grown and a fresh slab.
var borrowSizes = []int{0, 1, 3, 128, 8192, 20000}

// hammer drives p from 8 concurrent callers, 40 calls each, cycling
// through borrowSizes out of step with one another; call makes one
// n-element request and checks its reply.
func hammer(t *testing.T, p Port, call func(r *rand.Rand, n int) error) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for j := 0; j < 40; j++ {
				n := borrowSizes[(g+j)%len(borrowSizes)]
				if err := call(r, n); err != nil {
					t.Errorf("caller %d call %d (%d elements): %v", g, j, n, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBorrowedArgsEchoedByteExact: concurrent callers of mixed sizes
// against a component that returns its argument slice as its result. Any
// reuse of the arena before the response is encoded, or any sharing of it
// between workers, corrupts a reply (and trips the race detector).
func TestBorrowedArgsEchoedByteExact(t *testing.T) {
	for name, p := range borrowPorts(t, "b1") {
		p := p
		t.Run(name, func(t *testing.T) {
			hammer(t, p, func(r *rand.Rand, n int) error {
				data := randDoubles(r, n)
				out, err := p.Invoke(context.Background(), "echo", wire.Args("data", data))
				if err != nil {
					return err
				}
				if got, _ := wire.GetArg(out, "data"); !sameBits(got.([]float64), data) {
					return errors.New("reply differs from what was sent")
				}
				return nil
			})
		})
	}
}

// TestBorrowedArgsTwoArrays is the MatMul shape: two arrays per request
// carved from one slab, a result the component owns.
func TestBorrowedArgsTwoArrays(t *testing.T) {
	for name, p := range borrowPorts(t, "m1") {
		p := p
		t.Run(name, func(t *testing.T) {
			hammer(t, p, func(r *rand.Rand, n int) error {
				a, b := randDoubles(r, n), randDoubles(r, n)
				want := make([]float64, n)
				for i := range want {
					want[i] = a[i] * b[i]
				}
				out, err := p.Invoke(context.Background(), "getResult", wire.Args("mata", a, "matb", b))
				if err != nil {
					return err
				}
				if got, _ := wire.GetArg(out, "result"); !sameBits(got.([]float64), want) {
					return errors.New("product wrong")
				}
				return nil
			})
		})
	}
}

// TestBorrowedArgsEveryKind sends one array of every kind in one request,
// at lengths that leave each carve a different distance from an 8-byte
// boundary, and wants them all back intact.
func TestBorrowedArgsEveryKind(t *testing.T) {
	for name, p := range borrowPorts(t, "b1") {
		p := p
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			for n := 0; n < 24; n++ {
				args := wire.Args(
					"f64", randDoubles(r, n),
					"i64", make([]int64, n+1),
					"f32", make([]float32, n+2),
					"i32", make([]int32, n+3),
					"raw", make([]byte, n+4),
					"flags", make([]bool, n+5),
				)
				for i := range args[1].Value.([]int64) {
					args[1].Value.([]int64)[i] = r.Int63() - r.Int63()
				}
				for i := range args[2].Value.([]float32) {
					args[2].Value.([]float32)[i] = r.Float32()
				}
				for i := range args[3].Value.([]int32) {
					args[3].Value.([]int32)[i] = int32(r.Uint32())
				}
				r.Read(args[4].Value.([]byte))
				for i := range args[5].Value.([]bool) {
					args[5].Value.([]bool)[i] = r.Intn(2) == 1
				}
				out, err := p.Invoke(context.Background(), "echoAll", args)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if len(out) != len(args) {
					t.Fatalf("n=%d: %d values back, want %d", n, len(out), len(args))
				}
				if !sameBits(out[0].Value.([]float64), args[0].Value.([]float64)) {
					t.Fatalf("n=%d: f64 differs", n)
				}
				for i := 1; i < len(args); i++ {
					if out[i].Name != args[i].Name || !wire.Equal(out[i].Value, args[i].Value) {
						t.Fatalf("n=%d: %s differs", n, args[i].Name)
					}
				}
			}
		})
	}
}

// scaleImpl is the benchmark's `scale`: one 8-byte factor and an array in,
// a fresh array of the same length out.
func scaleImpl() container.Factory {
	arr := wsdl.ParamSpec{Name: "data", Type: wire.KindFloat64Array}
	return container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Scale", Operations: []wsdl.OpSpec{{Name: "scale",
				Input:  []wsdl.ParamSpec{{Name: "factor", Type: wire.KindFloat64}, arr},
				Output: []wsdl.ParamSpec{arr}}}},
			Handlers: map[string]container.OpFunc{
				"scale": func(_ context.Context, args []wire.Arg) ([]wire.Arg, error) {
					factor := args[0].Value.(float64)
					data := args[1].Value.([]float64)
					out := make([]float64, len(data))
					for i, x := range data {
						out[i] = factor * x
					}
					return wire.Args("data", out), nil
				},
			},
		}
	})
}

// allocBytesPerOp is the mean heap bytes the whole process allocates per
// call of fn, after a warm-up that fills pools, slabs and lazy metrics. It
// is the least of three rounds: a collection mid-round empties sync.Pools,
// and refilling a 64 KiB frame buffer is the collector's cost, not the
// call's.
func allocBytesPerOp(n int, fn func()) uint64 {
	for i := 0; i < 32; i++ {
		fn()
	}
	best := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/uint64(n))
	}
	return best
}

// TestXDRArrayCallAllocationGate is the tier-1 gate on the xdr-array
// shape: a warm 8192-double scale call over the mux socket — client,
// server and component in this process — may allocate the two arrays that
// have an owner to outlive the call (the component's output, the caller's
// result: 128 KiB) and small change, and the server side of it no array
// at all: its request arrays are arena memory.
func TestXDRArrayCallAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the code's")
	}
	const n = 8192
	c := container.New(container.Config{Name: "gate"})
	c.RegisterFactory("Scale", scaleImpl())
	c.RegisterFactory("Borrow", borrowImpl())
	for class, id := range map[string]string{"Scale": "s1", "Borrow": "b1"} {
		if _, _, err := c.Deploy(class, id); err != nil {
			t.Fatal(err)
		}
	}
	xs, err := NewXDRServer(c, "127.0.0.1:0", ServerOptions{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer xs.Close()
	p := dialXDR(xs.Addr(), "s1", Options{Telemetry: telemetry.Disabled()})
	defer p.Close()

	data := randDoubles(rand.New(rand.NewSource(1)), n)
	args := wire.Args("factor", 1.5, "data", data)
	ctx := context.Background()
	perCall := allocBytesPerOp(100, func() {
		if _, err := p.Invoke(ctx, "scale", args); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("scale over the mux socket: %d B/call", perCall)
	if perCall > 140_000 {
		t.Errorf("warm %d-double scale call allocates %d B, want <= 140000", n, perCall)
	}

	// The server side alone, on a component that allocates nothing: what
	// is left is the argument slice, its boxed values and three strings.
	e := xdr.NewEncoder(8*n + 64)
	if err := encodeRequest(e, "b1", "echo", wire.Args("data", data)); err != nil {
		t.Fatal(err)
	}
	var arena xdr.Arena
	perRequest := allocBytesPerOp(100, func() {
		xdr.PutEncoder(xs.handle(e.Bytes(), true, &arena))
	})
	t.Logf("server side of a %d-double echo: %d B/request", n, perRequest)
	if perRequest > 512 {
		t.Errorf("server side allocates %d B per request: the request array is not arena memory", perRequest)
	}
}

// nonLoopbackIP returns an address of this box that SameHost does not
// take for this box (no DNS, so any non-loopback literal will do).
func nonLoopbackIP(t *testing.T) string {
	t.Helper()
	addrs, err := net.InterfaceAddrs()
	if err != nil {
		t.Skip(err)
	}
	for _, a := range addrs {
		if ipn, ok := a.(*net.IPNet); ok && ipn.IP.To4() != nil && !ipn.IP.IsLoopback() {
			return ipn.IP.String()
		}
	}
	t.Skip("no non-loopback IPv4 address on this box")
	return ""
}

// TestAutoCompressionFollowsLocality is the compression matrix of the
// locality rule. An auto-mode client of a server that advertises flate
// dials raw when the endpoint is this host and still negotiates flate when
// it is not; explicit policies outrank locality in both directions.
func TestAutoCompressionFollowsLocality(t *testing.T) {
	advertised := &wsdl.Binding{Kind: wsdl.BindXDR,
		Capabilities: []wsdl.Capability{{Name: "compress", Value: "flate"}}}
	auto, adaptive, off := CompressPolicy{}, CompressPolicy{Mode: CompressAdaptive}, CompressPolicy{Mode: CompressOff}
	for _, tc := range []struct {
		pol  CompressPolicy
		b    *wsdl.Binding
		addr string
		want CompressMode
	}{
		{auto, advertised, "127.0.0.1:9000", CompressOff},
		{auto, advertised, "[::1]:9000", CompressOff},
		{auto, advertised, "localhost:9000", CompressOff},
		{auto, advertised, "10.0.0.7:9000", CompressAdaptive},
		{auto, advertised, "node7.example.org:9000", CompressAdaptive},
		{auto, &wsdl.Binding{Kind: wsdl.BindXDR}, "10.0.0.7:9000", CompressOff},
		{auto, nil, "10.0.0.7:9000", CompressOff},
		{adaptive, advertised, "127.0.0.1:9000", CompressAdaptive},
		{CompressPolicy{Mode: CompressOn}, nil, "localhost:9000", CompressOn},
		{off, advertised, "10.0.0.7:9000", CompressOff},
	} {
		if got := resolveCompress(tc.pol, tc.b, tc.addr).Mode; got != tc.want {
			t.Errorf("resolveCompress(%v, advertised=%v, %s) = %v, want %v",
				tc.pol.Mode, tc.b != nil && len(tc.b.Capabilities) > 0, tc.addr, got, tc.want)
		}
	}

	// End to end, through Dial and the WSDL: the codec gauge says what the
	// connection negotiated.
	reg := telemetry.New()
	c := container.New(container.Config{Name: "loc"})
	xs, err := NewXDRServer(c, "0.0.0.0:0", ServerOptions{Telemetry: telemetry.Disabled()})
	if err != nil {
		t.Fatal(err)
	}
	defer xs.Close()
	_, port, _ := net.SplitHostPort(xs.Addr())
	negotiated := func(host string, pol CompressPolicy) int64 {
		t.Helper()
		host = net.JoinHostPort(host, port)
		adv := container.New(container.Config{Name: "loc", XDRAddr: host, XDRCompress: "flate"})
		adv.RegisterFactory("MatMul", matmulImpl())
		inst, _, err := adv.Deploy("MatMul", "m1")
		if err != nil {
			t.Fatal(err)
		}
		xs.Retarget(adv)
		defs, err := adv.WSDLFor(inst.ID)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Dial(defs, Options{Telemetry: reg, Compress: pol,
			Forbid: []wsdl.BindingKind{wsdl.BindJavaObject, wsdl.BindShm}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		a := make([]float64, 512)
		for call := 0; call < 2; call++ { // the answer word is read by the first reply
			if _, err := p.Invoke(context.Background(), "getResult", wire.Args("mata", a, "matb", a)); err != nil {
				t.Fatal(err)
			}
		}
		return reg.GaugeVec("harness_xdr_codec_connections", "codec", "role", "client").With("flate").Value()
	}
	if g := negotiated("127.0.0.1", auto); g != 0 {
		t.Errorf("auto over loopback negotiated flate (gauge %d), want raw", g)
	}
	if g := negotiated("127.0.0.1", adaptive); g != 1 {
		t.Errorf("explicit adaptive over loopback: flate gauge %d, want 1", g)
	}
	if g := negotiated(nonLoopbackIP(t), auto); g != 1 {
		t.Errorf("auto over a non-loopback address: flate gauge %d, want 1", g)
	}
}
