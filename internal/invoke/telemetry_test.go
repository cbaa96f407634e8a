package invoke

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"harness2/internal/container"
	"harness2/internal/shmring"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// TestTraceCrossesSOAPHop proves the h2:Trace header carries trace
// identity across a real SOAP round trip: the server-side span must be a
// child of the client-side hop span, in the same trace.
func TestTraceCrossesSOAPHop(t *testing.T) {
	reg := telemetry.New()
	c := container.New(container.Config{Name: "trace"})
	c.RegisterFactory("Counter", counterImpl())
	if _, _, err := c.Deploy("Counter", "c1"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(&SOAPHandler{Container: c, Telemetry: reg})
	defer ts.Close()

	p := instrumentAs(&SOAPPort{URL: ts.URL + "/services/c1"}, Options{Telemetry: reg})
	ctx, root := reg.StartSpan(context.Background(), "client")
	if _, err := p.Invoke(ctx, "inc", wire.Args("by", int64(3))); err != nil {
		t.Fatal(err)
	}
	root.End()

	var cli, hop, srv telemetry.SpanRecord
	for _, rec := range reg.RecentSpans() {
		switch rec.Name {
		case "client":
			cli = rec
		case "invoke.soap":
			hop = rec
		case "soap.server":
			srv = rec
		}
	}
	if cli.SpanID == 0 || hop.SpanID == 0 || srv.SpanID == 0 {
		t.Fatalf("missing spans: %+v", reg.RecentSpans())
	}
	if hop.TraceID != cli.TraceID || srv.TraceID != cli.TraceID {
		t.Fatalf("trace split: cli=%x hop=%x srv=%x", cli.TraceID, hop.TraceID, srv.TraceID)
	}
	if hop.ParentID != cli.SpanID {
		t.Fatalf("hop parent = %x, want %x", hop.ParentID, cli.SpanID)
	}
	if srv.ParentID != hop.SpanID {
		t.Fatalf("server parent = %x, want client hop %x", srv.ParentID, hop.SpanID)
	}
}

// TestUntracedInvokeCreatesNoSpans: without a caller-started trace, the
// per-hop instrumentation must not invent one (ChildSpan semantics).
func TestUntracedInvokeCreatesNoSpans(t *testing.T) {
	reg := telemetry.New()
	c := container.New(container.Config{Name: "untraced"})
	c.RegisterFactory("Counter", counterImpl())
	if _, _, err := c.Deploy("Counter", "c1"); err != nil {
		t.Fatal(err)
	}
	p := instrumentAs(&LocalPort{Container: c, Instance: "c1"}, Options{Telemetry: reg})
	if _, err := p.Invoke(context.Background(), "inc", wire.Args("by", int64(1))); err != nil {
		t.Fatal(err)
	}
	if n := len(reg.RecentSpans()); n != 0 {
		t.Fatalf("untraced invoke recorded %d spans", n)
	}
}

// TestInvokeMetricsPerBinding drives one traced call through every rung
// of the ladder and checks the per-binding family trio, one invoke.<label>
// span per call parented to the caller's span, and the XDR wire-level
// counters.
func TestInvokeMetricsPerBinding(t *testing.T) {
	reg := telemetry.New()
	h := newLadderHost(t, "Counter", counterImpl())
	defs := h.deploy(t, "Counter", "c1")
	ports := OpenAll(defs, Options{
		LocalContainers: []*container.Container{h.c},
		Telemetry:       reg,
	})
	var labels []string
	for _, r := range ladder {
		if r.kind == wsdl.BindShm && !shmring.Supported() {
			t.Log("shm column not run: shmring.Supported() is false on this platform")
			continue
		}
		labels = append(labels, r.label)
	}
	if len(ports) != len(labels) {
		t.Fatalf("ports = %d, want one per rung %v", len(ports), labels)
	}
	ctx, root := reg.StartSpan(context.Background(), "caller")
	for _, p := range ports {
		if _, err := p.Invoke(ctx, "inc", wire.Args("by", int64(1))); err != nil {
			t.Fatalf("[%v] %v", p.Kind(), err)
		}
		_ = p.Close()
	}
	root.End()
	for _, binding := range labels {
		if got := reg.Counter("harness_invoke_calls_total", "binding", binding, "op", "inc").Value(); got != 1 {
			t.Errorf("calls{binding=%s} = %d, want 1", binding, got)
		}
		if got := reg.Histogram("harness_invoke_latency_ns", "binding", binding, "op", "inc").Count(); got != 1 {
			t.Errorf("latency{binding=%s} count = %d, want 1", binding, got)
		}
		if got := reg.Counter("harness_invoke_errors_total", "binding", binding, "op", "inc").Value(); got != 0 {
			t.Errorf("errors{binding=%s} = %d, want 0", binding, got)
		}
	}
	spans := map[string]int{}
	for _, rec := range reg.RecentSpans() {
		if rec.TraceID == root.Context().TraceID && rec.ParentID == root.Context().SpanID {
			spans[rec.Name]++
		}
	}
	for _, binding := range labels {
		if n := spans["invoke."+binding]; n != 1 {
			t.Errorf("invoke.%s spans under the caller = %d, want 1 (all: %v)", binding, n, spans)
		}
	}
	if tx := reg.Counter("harness_xdr_tx_bytes_total", "role", "client").Value(); tx == 0 {
		t.Error("xdr client tx bytes not counted")
	}
	if rx := reg.Counter("harness_xdr_rx_bytes_total", "role", "client").Value(); rx == 0 {
		t.Error("xdr client rx bytes not counted")
	}
	// One mux call flushed exactly one batch and left nothing in flight.
	if n := reg.Histogram("harness_xdr_mux_flush_batch_bytes", "role", "client").Count(); n == 0 {
		t.Error("mux flush batch histogram empty")
	}
	if g := reg.Gauge("harness_xdr_mux_inflight", "role", "client").Value(); g != 0 {
		t.Errorf("mux inflight = %d after drain, want 0", g)
	}
	// Failed calls feed the error counter.
	ref := defs.PortsByKind(wsdl.BindXDR)
	ghost := instrumentAs(NewXDRPort(ref[0].Port.Address, "ghost", Options{Telemetry: reg}), Options{Telemetry: reg})
	defer ghost.Close()
	if _, err := ghost.Invoke(context.Background(), "inc", wire.Args("by", int64(1))); err == nil {
		t.Fatal("ghost instance should fault")
	}
	if got := reg.Counter("harness_invoke_errors_total", "binding", "xdr", "op", "inc").Value(); got != 1 {
		t.Errorf("xdr errors = %d, want 1", got)
	}
}

// TestDisabledTelemetryRecordsNothing: ports wired to Disabled() must
// leave the registry view empty and still work.
func TestDisabledTelemetryRecordsNothing(t *testing.T) {
	h := newHost(t)
	_, defs := h.deploy(t, "Counter", "c1")
	ports := OpenAll(defs, Options{
		LocalContainers: []*container.Container{h.c},
		Telemetry:       telemetry.Disabled(),
	})
	ctx := context.Background()
	for _, p := range ports {
		if _, err := p.Invoke(ctx, "inc", wire.Args("by", int64(1))); err != nil {
			t.Fatalf("[%v] %v", p.Kind(), err)
		}
		_ = p.Close()
	}
	var sb strings.Builder
	if err := telemetry.Disabled().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("disabled registry exposed:\n%s", sb.String())
	}
}
