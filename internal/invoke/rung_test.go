package invoke

import (
	"context"
	"testing"

	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// instrumentAs wraps a bare port in the instruments of its kind's ladder
// row, exactly as Dial would have.
func instrumentAs(p Port, opts Options) Port {
	return rungOf(p.Kind()).instrument(p, opts)
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
