package invoke

import (
	"context"
	"sync/atomic"
	"testing"

	"harness2/internal/container"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// TestTextBindingsNormaliseStringWhitespace is a declared difference
// (DESIGN.md S18): both text bindings hand a string to an XML parser,
// which trims it and turns CR LF into LF, while the local call carries it
// exactly (the binary bindings carry no strings). A fix flips this row.
func TestTextBindingsNormaliseStringWhitespace(t *testing.T) {
	h := newLadderHost(t)
	var absent atomic.Int64
	h.c.RegisterFactory("Echo", echoImpl([]wire.Kind{wire.KindString}, &absent))
	h.deploy(t, "Echo", "e")
	sp, hp := &SOAPPort{URL: h.hs.URL + "/services/e"}, &HTTPPort{URL: h.hs.URL + "/rest/e"}
	ctx := context.Background()
	for _, row := range []struct{ sent, text string }{
		{" padded ", "padded"},
		{"a\r\nb", "a\nb"},
	} {
		args := wire.Args("v", row.sent)
		local, err := h.c.Invoke(ctx, "e", "string", args)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := wire.GetArg(local, "v"); got != row.sent {
			t.Errorf("local call changed %q into %q", row.sent, got)
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
	h := newLadderHost(t)
	h.c.RegisterFactory("Names", container.FuncFactory(func() *container.FuncComponent {
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
	h.deploy(t, "Names", "n")
	out, err := (&HTTPPort{URL: h.hs.URL + "/rest/n"}).Invoke(context.Background(), "names", nil)
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
