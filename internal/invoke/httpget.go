package invoke

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"harness2/internal/container"
	"harness2/internal/resilience"
	"harness2/internal/soap"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
	"harness2/internal/xmlq"
)

// The HTTP GET binding: the second W3C-standardised WSDL binding. Calls
// are GET requests of the form
//
//	GET <base>/<instance>/<operation>?param=value&arrayparam=v1&arrayparam=v2
//
// with array parameters repeated. Responses are a minimal XML document:
//
//	<response op="getTime">
//	  <out name="time" type="string">Mon, 15 Apr 2002 ...</out>
//	  <out name="vals" type="ArrayOfDouble">
//	    <item>1</item>
//	    <item>2</item>
//	  </out>
//	</response>
//
// Every value, in the query and in the response, is in the lexical form
// of its wire kind (wire.AppendText / wire.ParseText) — the form the SOAP
// binding writes, so the two text bindings read the same values back.
// The server parses incoming text as the operation's declared input kinds
// (from the instance's service spec); the client recovers output kinds
// from the type attributes with the one xmlq DOM parser. Struct-typed
// parameters are not representable, which is why WSDL generation refuses
// HTTP endpoints for struct-bearing services.

// HTTPGetHandler serves the HTTP GET binding for a container's instances.
type HTTPGetHandler struct {
	Container *container.Container
	// Telemetry selects the metrics registry; nil falls back to the
	// process default, telemetry.Disabled() switches instrumentation off.
	Telemetry *telemetry.Registry

	minit sync.Once
	m     bindingMetrics
}

func (h *HTTPGetHandler) metrics() *bindingMetrics {
	h.minit.Do(func() { h.m = newBindingMetrics(telemetry.Or(h.Telemetry), "http-server") })
	return &h.m
}

// ServeHTTP implements http.Handler.
func (h *HTTPGetHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "http binding requires GET", http.StatusMethodNotAllowed)
		return
	}
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if len(parts) < 2 {
		http.Error(w, "path must be <instance>/<operation>", http.StatusBadRequest)
		return
	}
	instance, op := parts[len(parts)-2], parts[len(parts)-1]
	inst, ok := h.Container.Instance(instance)
	if !ok {
		http.Error(w, fmt.Sprintf("no instance %q", instance), http.StatusNotFound)
		return
	}
	opSpec := findOp(inst.Spec(), op)
	if opSpec == nil {
		http.Error(w, fmt.Sprintf("no operation %q", op), http.StatusNotFound)
		return
	}
	args, err := argsFromQuery(opSpec.Input, r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m := h.metrics()
	hist, start := m.begin(op)
	out, err := h.Container.Invoke(r.Context(), instance, op, args)
	m.done(op, hist, start, err)
	if err != nil {
		// A shed from the container's admission limiter is answered 503
		// and carries the Overloaded token for the client to classify.
		status := http.StatusInternalServerError
		if errors.Is(err, resilience.ErrOverloaded) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	buf := soap.AcquireBuffer()
	defer soap.ReleaseBuffer(buf)
	doc, err := appendResponseDoc(*buf, op, out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	*buf = doc[:0]
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
	_, _ = w.Write(doc)
}

func findOp(spec wsdl.ServiceSpec, op string) *wsdl.OpSpec {
	for i := range spec.Operations {
		if spec.Operations[i].Name == op {
			return &spec.Operations[i]
		}
	}
	return nil
}

// argsFromQuery coerces URL query values to the declared input kinds.
// Parameters absent from the query are omitted (operations treat them as
// unset), matching HTML-form semantics.
func argsFromQuery(params []wsdl.ParamSpec, q url.Values) ([]wire.Arg, error) {
	var out []wire.Arg
	for _, p := range params {
		vals, ok := q[p.Name]
		if !ok {
			continue
		}
		v, err := parseValue(p.Type, vals)
		if err != nil {
			return nil, fmt.Errorf("invoke: parameter %q: %w", p.Name, err)
		}
		out = append(out, wire.Arg{Name: p.Name, Value: v})
	}
	return out, nil
}

// parseValue reads the texts of one query parameter or response output
// as a value of kind k: one text for a scalar, one per element for an
// array.
func parseValue(k wire.Kind, texts []string) (any, error) {
	if !k.IsArray() {
		if len(texts) != 1 {
			return nil, fmt.Errorf("scalar given %d values", len(texts))
		}
		return wire.ParseText(k, texts[0])
	}
	b, _ := wire.NewArrayBuilder[string](k.Elem(), len(texts))
	for _, t := range texts {
		if err := b.Add(t); err != nil {
			return nil, err
		}
	}
	return b.Value(), nil
}

// appendResponseDoc renders output args as the binding's XML response,
// appending into dst: values in their wire lexical form, element text
// escaped as SOAP escapes it, arrays as SOAP's <item> lines.
func appendResponseDoc(dst []byte, op string, out []wire.Arg) ([]byte, error) {
	dst = append(dst, `<response op="`...)
	dst = xmlq.AppendAttrEscaped(dst, op)
	dst = append(dst, "\">\n"...)
	for _, a := range out {
		k := wire.KindOf(a.Value)
		if k == wire.KindInvalid || k == wire.KindStruct {
			return nil, fmt.Errorf("invoke: http binding cannot encode %q (%T)", a.Name, a.Value)
		}
		dst = append(dst, `  <out name="`...)
		dst = xmlq.AppendAttrEscaped(dst, a.Name)
		dst = append(dst, `" type="`...)
		dst = append(dst, k.String()...)
		dst = append(dst, `">`...)
		if k.IsArray() {
			dst = append(dst, '\n')
			dst = soap.AppendItems(dst, a.Value, 4)
			dst = append(dst, "  "...)
		} else if s, ok := a.Value.(string); ok {
			dst = soap.AppendEscaped(dst, s)
		} else {
			dst = wire.AppendText(dst, a.Value)
		}
		dst = append(dst, "</out>\n"...)
	}
	return append(dst, "</response>\n"...), nil
}

// HTTPPort is the client side of the HTTP GET binding.
type HTTPPort struct {
	// URL is the instance endpoint (…/rest/<instance>); the operation
	// name is appended per call.
	URL string
	// HTTP is the underlying client; nil uses a 30 s-timeout default.
	HTTP *http.Client
}

var _ Port = (*HTTPPort)(nil)

// defaultHTTPGet shares soap.Transport's keep-alive pool so GET-binding
// and SOAP traffic to the same kernel reuse one set of connections.
var defaultHTTPGet = soap.SharedHTTP

// Invoke implements Port.
func (p *HTTPPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	q := url.Values{}
	for _, a := range args {
		k := wire.KindOf(a.Value)
		switch {
		case k == wire.KindInvalid || k == wire.KindStruct:
			return nil, fmt.Errorf("invoke: http binding cannot carry %q (%T)", a.Name, a.Value)
		case k.IsArray():
			for i, n := 0, wire.Len(a.Value); i < n; i++ {
				q.Add(a.Name, string(wire.AppendItem(nil, a.Value, i)))
			}
		default:
			q.Set(a.Name, string(wire.AppendText(nil, a.Value)))
		}
	}
	u := strings.TrimSuffix(p.URL, "/") + "/" + op
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("invoke: %w", err)
	}
	httpc := p.HTTP
	if httpc == nil {
		httpc = defaultHTTPGet
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("invoke: http get %s: %w", u, err)
	}
	defer resp.Body.Close()
	bodyBuf := soap.AcquireBuffer()
	defer soap.ReleaseBuffer(bodyBuf)
	body, err := soap.AppendReadAll(*bodyBuf, resp.Body, resp.ContentLength)
	*bodyBuf = body[:0]
	if err != nil {
		return nil, fmt.Errorf("invoke: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("invoke: http binding %s: %s: %s",
			op, resp.Status, strings.TrimSpace(string(body)))
	}
	// Parsed args never alias body, so the deferred release is safe.
	return parseResponseDoc(body)
}

// parseResponseDoc decodes the binding's XML response.
func parseResponseDoc(body []byte) ([]wire.Arg, error) {
	root, err := xmlq.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("invoke: http binding response: %w", err)
	}
	if root.Local != "response" {
		return nil, fmt.Errorf("invoke: http binding response root is %q", root.Local)
	}
	var out []wire.Arg
	for _, n := range root.ChildrenNamed("out") {
		name, typ := n.AttrOr("name", ""), n.AttrOr("type", "")
		k := wire.KindByName(typ)
		if k == wire.KindInvalid {
			return nil, fmt.Errorf("invoke: http binding output %q has unknown type %q", name, typ)
		}
		texts := []string{n.Text}
		if k.IsArray() {
			items := n.ChildrenNamed("item")
			texts = make([]string, len(items))
			for i, it := range items {
				texts[i] = it.Text
			}
		}
		v, err := parseValue(k, texts)
		if err != nil {
			return nil, fmt.Errorf("invoke: http binding output %q: %w", name, err)
		}
		out = append(out, wire.Arg{Name: name, Value: v})
	}
	return out, nil
}

// Kind implements Port.
func (p *HTTPPort) Kind() wsdl.BindingKind { return wsdl.BindHTTP }

// Endpoint implements Port.
func (p *HTTPPort) Endpoint() string { return p.URL }

// Close implements Port.
func (p *HTTPPort) Close() error { return nil }
