package invoke

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"harness2/internal/container"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// echoKindsFactory has one operation per kind the GET binding carries,
// named after the kind, echoing its input v. An absent v echoes as the
// kind's zero value: that is how an empty array crosses a query string,
// which has no way to spell one.
func echoKindsFactory() container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		fc := &container.FuncComponent{
			Spec:     wsdl.ServiceSpec{Name: "EchoKinds"},
			Handlers: map[string]container.OpFunc{},
		}
		for _, k := range wire.Kinds() {
			if k == wire.KindStruct {
				continue
			}
			v := []wsdl.ParamSpec{{Name: "v", Type: k}}
			fc.Spec.Operations = append(fc.Spec.Operations, wsdl.OpSpec{Name: k.String(), Input: v, Output: v})
			fc.Handlers[k.String()] = func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
				if x, ok := wire.GetArg(args, "v"); ok {
					return wire.Args("v", x), nil
				}
				return wire.Args("v", wire.Zero(k)), nil
			}
		}
		return fc
	})
}

// textPorts deploys EchoKinds on one container served by both text
// bindings and returns the container with a port of each.
func textPorts(t *testing.T) (*container.Container, *SOAPPort, *HTTPPort) {
	t.Helper()
	c := container.New(container.Config{Name: "text"})
	c.RegisterFactory("EchoKinds", echoKindsFactory())
	if _, _, err := c.Deploy("EchoKinds", "e"); err != nil {
		t.Fatal(err)
	}
	off := telemetry.Disabled()
	mux := http.NewServeMux()
	mux.Handle("/services/", &SOAPHandler{Container: c, Telemetry: off})
	mux.Handle("/rest/", http.StripPrefix("/rest/", &HTTPGetHandler{Container: c, Telemetry: off}))
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return c, &SOAPPort{URL: hs.URL + "/services/e"},
		&HTTPPort{URL: hs.URL + "/rest/e"}
}

// same is reflect.DeepEqual with NaN equal to NaN and -0 told from 0:
// the Go-syntax rendering keeps the type, nil-versus-empty and the sign
// of zero.
func same(a, b any) bool {
	if fmt.Sprintf("%#v", a) != fmt.Sprintf("%#v", b) {
		return false
	}
	return reflect.DeepEqual(a, b) || strings.Contains(fmt.Sprint(a), "NaN")
}

// TestTextBindingsAgree: the same vector sent through the SOAP binding
// and the HTTP GET binding comes back identical from both — one lexical
// form per kind, so a caller cannot tell which text binding carried it.
func TestTextBindingsAgree(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	vector := []any{
		true, false,
		int32(0), int32(math.MinInt32), int32(math.MaxInt32),
		int64(math.MinInt64), int64(math.MaxInt64),
		float32(negZero), float32(nan), float32(inf), float32(-inf),
		float32(math.MaxFloat32), float32(-math.MaxFloat32),
		float32(math.SmallestNonzeroFloat32), float32(1.1754944e-38),
		negZero, nan, inf, -inf, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1,
		"", "hello <world> & more", "café", "tab\tinside",
		[]byte{}, []byte{0, 1, 255},
		[]bool{}, []bool{true},
		[]int32{}, []int32{-7},
		[]int64{}, []int64{math.MinInt64},
		[]float32{}, []float32{float32(nan)},
		[]float64{}, []float64{negZero},
		[]string{}, []string{""}, []string{"", "a & b", ""},
	}
	_, sp, hp := textPorts(t)
	ctx := context.Background()
	for _, v := range vector {
		op := wire.KindOf(v).String()
		want := wire.Args("v", v)
		viaSOAP, err := sp.Invoke(ctx, op, want)
		if err != nil {
			t.Fatalf("soap %s %#v: %v", op, v, err)
		}
		viaGET, err := hp.Invoke(ctx, op, want)
		if err != nil {
			t.Fatalf("http %s %#v: %v", op, v, err)
		}
		if !same(viaSOAP, viaGET) {
			t.Errorf("%s: soap %#v, http %#v", op, viaSOAP, viaGET)
		}
		if !same(viaSOAP, want) {
			t.Errorf("%s: sent %#v, got back %#v", op, want, viaSOAP)
		}
	}
}

// TestTextBindingsNormaliseStringWhitespace is a declared difference
// (DESIGN.md S18): both text bindings hand a string to an XML parser,
// which trims it and turns CR LF into LF, while the binary bindings and
// the local call carry it exactly. A fix flips this row.
func TestTextBindingsNormaliseStringWhitespace(t *testing.T) {
	c, sp, hp := textPorts(t)
	ctx := context.Background()
	for _, row := range []struct{ sent, text string }{
		{" padded ", "padded"},
		{"a\r\nb", "a\nb"},
	} {
		args := wire.Args("v", row.sent)
		local, err := c.Invoke(ctx, "e", "string", args)
		if err != nil {
			t.Fatal(err)
		}
		if !same(local, args) {
			t.Errorf("local call changed %q into %#v", row.sent, local)
		}
		for _, p := range []Port{sp, hp} {
			out, err := p.Invoke(ctx, "string", args)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := wire.GetArg(out, "v"); got != row.text {
				t.Errorf("%v: sent %q, got %q, want %q", p.Kind(), row.sent, got, row.text)
			}
		}
	}
}

// TestHTTPGetOutputNamesRoundTrip: output names travel as XML attribute
// values and come back exactly, escaped as XML rather than Go-quoted.
func TestHTTPGetOutputNamesRoundTrip(t *testing.T) {
	names := []string{`a\b`, "tab\there", "line\nbreak", `say "hi"`, "<&>", "é"}
	c := container.New(container.Config{Name: "names"})
	c.RegisterFactory("Names", container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "Names", Operations: []wsdl.OpSpec{{Name: "names"}}},
			Handlers: map[string]container.OpFunc{
				"names": func(ctx context.Context, _ []wire.Arg) ([]wire.Arg, error) {
					out := make([]wire.Arg, len(names))
					for i, n := range names {
						out[i] = wire.Arg{Name: n, Value: int32(i)}
					}
					return out, nil
				},
			},
		}
	}))
	if _, _, err := c.Deploy("Names", "n"); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(&HTTPGetHandler{Container: c, Telemetry: telemetry.Disabled()})
	t.Cleanup(hs.Close)
	out, err := (&HTTPPort{URL: hs.URL + "/n"}).Invoke(context.Background(), "names", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(names) {
		t.Fatalf("got %d outputs, want %d", len(out), len(names))
	}
	for i, a := range out {
		if a.Name != names[i] {
			t.Errorf("output %q came back named %q", names[i], a.Name)
		}
	}
}
