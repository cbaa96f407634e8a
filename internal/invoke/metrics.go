package invoke

import (
	"context"
	"io"
	"time"

	"harness2/internal/resilience/chaos"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
)

// This file holds the invocation framework's instrument sets (telemetry
// S27). Every port the binding ladder opens is wrapped in one
// instrumented Port, which records the per-binding family trio — call
// count, error count, latency histogram, keyed by operation — and opens
// the invoke.<label> child span; the server handlers record the same
// trio. The XDR binding adds its wire-level extras: bytes on the wire in
// each direction, the multiplexed in-flight depth, and the bytes each
// flush or vectored write commits. All handles are nil-safe, so a port
// opened with telemetry.Disabled() pays one branch per instrument and
// allocates nothing (BenchmarkInstrumentedDisabled, E12).

// instrumented is the one instrumentation layer of the client rungs: it
// refuses a done context before the wire, applies the chaos injector,
// opens the rung's child span and records the call trio around the bare
// transport it wraps. Everything it needs per call — span name, chaos
// target, metric handles — is fixed when the rung opens the port.
type instrumented struct {
	Port
	rung   *rung
	target string // chaos endpoint: the wrapped port's Endpoint()
	tel    *telemetry.Registry
	chaos  *chaos.Injector
	m      bindingMetrics
}

// instrument wraps a port this rung opened in the rung's instruments.
func (r *rung) instrument(p Port, opts Options) *instrumented {
	tel := telemetry.Or(opts.Telemetry)
	return &instrumented{Port: p, rung: r, target: p.Endpoint(), tel: tel,
		chaos: opts.Chaos, m: newBindingMetrics(tel, r.label)}
}

// Invoke implements Port. A done context fails here on every rung, so no
// transport executes an operation its caller has already given up on.
func (p *instrumented) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.chaos.Apply(ctx, p.rung.label, op, p.target); err != nil {
		return nil, err
	}
	h, start := p.m.begin(op)
	ctx, sp := p.tel.ChildSpan(ctx, p.rung.span)
	out, err := p.Port.Invoke(ctx, op, args)
	sp.SetError(err)
	sp.End()
	p.m.done(op, h, start, err)
	return out, err
}

// bindingMetrics is the per-binding instrument set: calls, errors and
// latency per operation, with the binding name as a fixed label.
type bindingMetrics struct {
	calls *telemetry.CounterVec
	errs  *telemetry.CounterVec
	lat   *telemetry.HistogramVec
}

// newBindingMetrics resolves the invoke family trio on r for one binding.
// A disabled registry yields nil vecs, which hand out nil children.
func newBindingMetrics(r *telemetry.Registry, binding string) bindingMetrics {
	r.Help("harness_invoke_calls_total", "invocations by binding and operation")
	r.Help("harness_invoke_errors_total", "failed invocations by binding and operation")
	r.Help("harness_invoke_latency_ns", "invocation latency by binding and operation")
	return bindingMetrics{
		calls: r.CounterVec("harness_invoke_calls_total", "op", "binding", binding),
		errs:  r.CounterVec("harness_invoke_errors_total", "op", "binding", binding),
		lat:   r.HistogramVec("harness_invoke_latency_ns", "op", "binding", binding),
	}
}

// begin opens one timed call: it resolves the op's latency histogram and
// starts its timer. On the disabled path the histogram is nil and Start
// skips the clock call entirely.
func (m *bindingMetrics) begin(op string) (*telemetry.Histogram, time.Time) {
	h := m.lat.With(op)
	return h, h.Start()
}

// done closes one timed call begun with begin.
func (m *bindingMetrics) done(op string, h *telemetry.Histogram, start time.Time, err error) {
	h.ObserveSince(start)
	m.calls.With(op).Inc()
	if err != nil {
		m.errs.With(op).Inc()
	}
}

// xdrWireMetrics is the XDR binding's wire-level instrument set, shared
// by the client port and the server with a distinguishing role label.
type xdrWireMetrics struct {
	tx, rx     *telemetry.Counter   // bytes that reached / left the socket
	inflight   *telemetry.Gauge     // registered, unanswered requests
	flushBatch *telemetry.Histogram // bytes committed per flush syscall
	refused    *telemetry.Counter   // connections closed unanswered at the preamble

	// Compression plane (S33): wire bytes that traveled compressed in
	// each direction, the per-frame compressed/original size ratio, and a
	// per-codec gauge of live connections that negotiated it. All nil-safe:
	// a raw stream touches none of them.
	compOut   *telemetry.Counter   // compressed payload bytes sent
	compIn    *telemetry.Counter   // compressed payload bytes received
	compRatio *telemetry.Histogram // per-frame compressed size as % of original
	codecs    *telemetry.GaugeVec  // live connections by negotiated codec
}

func newXDRWireMetrics(r *telemetry.Registry, role string) xdrWireMetrics {
	r.Help("harness_xdr_tx_bytes_total", "bytes written to XDR sockets by role")
	r.Help("harness_xdr_rx_bytes_total", "bytes read from XDR sockets by role")
	r.Help("harness_xdr_mux_inflight", "requests awaiting a response by role")
	r.Help("harness_xdr_mux_flush_batch_bytes", "bytes per flush syscall by role")
	r.Help("harness_invoke_xdr_refused_total", "XDR connections closed unanswered at the dial preamble (server: not MagicV3; client: peer hung up before its answer word) by role")
	r.Help("harness_xdr_compress_out_bytes_total", "compressed payload bytes sent by role")
	r.Help("harness_xdr_compress_in_bytes_total", "compressed payload bytes received by role")
	r.Help("harness_xdr_compress_ratio_pct", "per-frame compressed size as percent of original by role")
	r.Help("harness_xdr_codec_connections", "live XDR connections by negotiated codec and role")
	return xdrWireMetrics{
		tx:         r.Counter("harness_xdr_tx_bytes_total", "role", role),
		rx:         r.Counter("harness_xdr_rx_bytes_total", "role", role),
		inflight:   r.Gauge("harness_xdr_mux_inflight", "role", role),
		flushBatch: r.Histogram("harness_xdr_mux_flush_batch_bytes", "role", role),
		refused:    r.Counter("harness_invoke_xdr_refused_total", "role", role),
		compOut:    r.Counter("harness_xdr_compress_out_bytes_total", "role", role),
		compIn:     r.Counter("harness_xdr_compress_in_bytes_total", "role", role),
		compRatio:  r.Histogram("harness_xdr_compress_ratio_pct", "role", role),
		codecs:     r.GaugeVec("harness_xdr_codec_connections", "codec", "role", role),
	}
}

// compressedOut records one outbound frame that shipped compressed: wire
// is the on-wire payload size, orig the uncompressed size.
func (wm *xdrWireMetrics) compressedOut(wire, orig int) {
	wm.compOut.Add(uint64(wire))
	if orig > 0 {
		wm.compRatio.Observe(uint64(wire * 100 / orig))
	}
}

// compressedIn records one inbound frame that arrived compressed.
func (wm *xdrWireMetrics) compressedIn(wire int) {
	wm.compIn.Add(uint64(wire))
}

// countingReader mirrors countingWriter on the receive side: it feeds the
// rx byte counter without a per-connection mutex (the counter is atomic,
// and a nil counter is a branch).
type countingReader struct {
	r  io.Reader
	rx *telemetry.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.rx.Add(uint64(n))
	}
	return n, err
}
