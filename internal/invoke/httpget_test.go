package invoke

import (
	"context"
	"strings"
	"testing"

	"harness2/internal/container"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// mixedFactory exposes one operation exercising every URL-encodable kind.
func mixedFactory() container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Mixed", Operations: []wsdl.OpSpec{{
				Name: "echo",
				Input: []wsdl.ParamSpec{
					{Name: "b", Type: wire.KindBool},
					{Name: "i", Type: wire.KindInt32},
					{Name: "l", Type: wire.KindInt64},
					{Name: "f", Type: wire.KindFloat32},
					{Name: "d", Type: wire.KindFloat64},
					{Name: "s", Type: wire.KindString},
					{Name: "raw", Type: wire.KindBytes},
					{Name: "ds", Type: wire.KindFloat64Array},
					{Name: "ss", Type: wire.KindStringArray},
				},
				Output: []wsdl.ParamSpec{
					{Name: "b", Type: wire.KindBool},
					{Name: "i", Type: wire.KindInt32},
					{Name: "l", Type: wire.KindInt64},
					{Name: "f", Type: wire.KindFloat32},
					{Name: "d", Type: wire.KindFloat64},
					{Name: "s", Type: wire.KindString},
					{Name: "raw", Type: wire.KindBytes},
					{Name: "ds", Type: wire.KindFloat64Array},
					{Name: "ss", Type: wire.KindStringArray},
				},
			}}},
			Handlers: map[string]container.OpFunc{
				"echo": func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
					return args, nil
				},
			},
		}
	})
}

// getHost serves Mixed beside the ladder host's classes and returns the
// host with its HTTP GET base URL.
func getHost(t *testing.T) (*ladderHost, string) {
	t.Helper()
	h := newLadderHost(t)
	h.c.RegisterFactory("Mixed", mixedFactory())
	return h, h.hs.URL + "/rest"
}

func TestHTTPGetStatefulInstance(t *testing.T) {
	h, base := getHost(t)
	h.deploy(t, "Counter", "cnt")
	p := &HTTPPort{URL: base + "/cnt"}
	ctx := context.Background()
	var total int64
	for i := 0; i < 3; i++ {
		out, err := p.Invoke(ctx, "inc", wire.Args("by", int64(2)))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := wire.GetArg(out, "total")
		total = v.(int64)
	}
	if total != 6 {
		t.Fatalf("total = %d", total)
	}
}

func TestHTTPGetErrors(t *testing.T) {
	h, base := getHost(t)
	h.deploy(t, "Mixed", "m")
	ctx := context.Background()

	cases := []struct {
		name string
		port *HTTPPort
		op   string
		args []wire.Arg
		want string
	}{
		{"unknown instance", &HTTPPort{URL: base + "/ghost"}, "echo", nil, "no instance"},
		{"unknown op", &HTTPPort{URL: base + "/m"}, "nosuch", nil, "no operation"},
		{"bad param type", &HTTPPort{URL: base + "/m"}, "echo",
			wire.Args("i", "not-an-int-but-string-named-i"), "parameter"},
		{"struct arg rejected client-side", &HTTPPort{URL: base + "/m"}, "echo",
			wire.Args("s", wire.NewStruct("X")), "cannot carry"},
	}
	for _, tc := range cases {
		_, err := tc.port.Invoke(ctx, tc.op, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestHTTPGetMethodNotAllowed(t *testing.T) {
	_, base := getHost(t)
	resp, err := defaultHTTPGet.Post(base+"/m/echo", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHTTPGetViaDialPreference(t *testing.T) {
	// With everything but HTTP forbidden, Dial must produce an HTTPPort
	// from generated WSDL.
	h := newLadderHost(t)
	defs := h.deploy(t, "Counter", "c1")
	refs := defs.PortsByKind(wsdl.BindHTTP)
	if len(refs) == 0 {
		t.Skip("host fixture has no HTTP base configured")
	}
	dial(t, defs, rungOf(wsdl.BindHTTP), Options{Forbid: []wsdl.BindingKind{
		wsdl.BindJavaObject, wsdl.BindShm, wsdl.BindXDR, wsdl.BindSOAP}})
}

func TestHTTPGetOmittedParams(t *testing.T) {
	// Absent query params are simply not passed, like HTML forms.
	h, base := getHost(t)
	h.deploy(t, "Mixed", "m")
	p := &HTTPPort{URL: base + "/m"}
	out, err := p.Invoke(context.Background(), "echo", wire.Args("i", int32(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
}
