package invoke

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"harness2/internal/container"
	"harness2/internal/soap"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
)

// SOAPHandler exposes every instance of c over the SOAP/HTTP binding.
// The final URL path segment selects the instance, matching the
// SOAPBase/<instance> endpoints the container advertises in WSDL.
type SOAPHandler struct {
	Container *container.Container
	Codec     soap.Codec
	// Understood lists header entry names the handler processes; any
	// other mustUnderstand header is refused with a MustUnderstand fault.
	Understood []string
	// Telemetry selects the metrics registry; nil falls back to the
	// process default, telemetry.Disabled() switches instrumentation off.
	Telemetry *telemetry.Registry

	minit sync.Once
	m     bindingMetrics
}

func (h *SOAPHandler) metrics() *bindingMetrics {
	h.minit.Do(func() { h.m = newBindingMetrics(telemetry.Or(h.Telemetry), "soap-server") })
	return &h.m
}

// isTraceHeader recognises the h2:Trace header entry in the forms XML
// decoding may surface it: the prefixed wire name, the bare local name
// (when the decoder resolves the namespace prefix away), or any other
// prefix bound to the same local name.
func isTraceHeader(name string) bool {
	return name == telemetry.TraceHeaderName ||
		name == "Trace" || strings.HasSuffix(name, ":Trace")
}

// traceContext lifts an incoming h2:Trace header into ctx, so the span
// opened for the server-side invocation continues the caller's trace.
func traceContext(ctx context.Context, headers []soap.Header) context.Context {
	for _, hd := range headers {
		if !isTraceHeader(hd.Name) {
			continue
		}
		if v, ok := hd.Value.(string); ok {
			if sc, ok := telemetry.ParseTraceHeader(v); ok {
				return telemetry.ContextWith(ctx, sc)
			}
		}
	}
	return ctx
}

// ServeHTTP implements http.Handler.
func (h *SOAPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "soap endpoint requires POST", http.StatusMethodNotAllowed)
		return
	}
	path := strings.TrimSuffix(r.URL.Path, "/")
	i := strings.LastIndexByte(path, '/')
	instance := path[i+1:]
	if instance == "" {
		h.fault(w, &soap.Fault{Code: "Client", String: "no instance in request path"})
		return
	}
	bodyBuf := soap.AcquireBuffer()
	defer soap.ReleaseBuffer(bodyBuf)
	body, err := soap.AppendReadAll(*bodyBuf, r.Body, r.ContentLength)
	*bodyBuf = body[:0]
	if err != nil {
		h.fault(w, &soap.Fault{Code: "Client", String: "unreadable request body"})
		return
	}
	call, err := h.Codec.DecodeCall(body)
	if err != nil {
		h.fault(w, &soap.Fault{Code: "Client", String: err.Error()})
		return
	}
	for _, hd := range call.Headers {
		if hd.MustUnderstand && !h.understands(hd.Name) {
			h.fault(w, &soap.Fault{Code: "MustUnderstand",
				String: fmt.Sprintf("header %q not understood", hd.Name)})
			return
		}
	}
	args := make([]wire.Arg, len(call.Params))
	for j, p := range call.Params {
		args[j] = wire.Arg{Name: p.Name, Value: p.Value}
	}
	m := h.metrics()
	hist, start := m.begin(call.Method)
	ctx := traceContext(r.Context(), call.Headers)
	ctx, sp := telemetry.Or(h.Telemetry).ChildSpan(ctx, "soap.server")
	out, err := h.Container.Invoke(ctx, instance, call.Method, args)
	sp.SetError(err)
	sp.End()
	m.done(call.Method, hist, start, err)
	if err != nil {
		h.fault(w, &soap.Fault{Code: "Server", String: err.Error()})
		return
	}
	params := make([]soap.Param, len(out))
	for j, a := range out {
		if !xmlChars(a.Value) {
			h.fault(w, &soap.Fault{Code: "Server", String: errXMLChars("soap", a.Name).Error()})
			return
		}
		params[j] = soap.Param{Name: a.Name, Value: a.Value}
	}
	respBuf := soap.AcquireBuffer()
	defer soap.ReleaseBuffer(respBuf)
	resp, err := h.Codec.AppendResponse(*respBuf, call.Method, params)
	if err != nil {
		h.fault(w, &soap.Fault{Code: "Server", String: err.Error()})
		return
	}
	*respBuf = resp[:0]
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	_, _ = w.Write(resp)
}

func (h *SOAPHandler) understands(name string) bool {
	if isTraceHeader(name) {
		return true // the telemetry plane always processes trace headers
	}
	for _, u := range h.Understood {
		if u == name {
			return true
		}
	}
	return false
}

func (h *SOAPHandler) fault(w http.ResponseWriter, f *soap.Fault) {
	buf := soap.AcquireBuffer()
	defer soap.ReleaseBuffer(buf)
	data := h.Codec.AppendFault(*buf, f)
	*buf = data[:0]
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write(data)
}

// CallOperation is a convenience wrapper invoking one named operation on a
// port and extracting a single named result.
func CallOperation(ctx context.Context, p Port, op string, args []wire.Arg, result string) (any, error) {
	out, err := p.Invoke(ctx, op, args)
	if err != nil {
		return nil, err
	}
	v, ok := wire.GetArg(out, result)
	if !ok {
		return nil, fmt.Errorf("invoke: result %q missing from %s response", result, op)
	}
	return v, nil
}
