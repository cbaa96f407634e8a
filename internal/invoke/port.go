// Package invoke is the HARNESS II invocation framework — the equivalent
// of IBM's Web Services Invocation Framework (WSIF) the paper builds on.
// It provides dynamically constructed "ports" (stubs) for each binding
// kind, plus Dial, which selects the cheapest usable binding for a WSDL
// description: in-process JavaObject access when the target instance is
// co-located, the XDR socket binding for numeric services, and SOAP/HTTP
// otherwise. "It is possible for a client both to select the type of
// protocol it wants to use to access a service (e.g. SOAP) or to let the
// framework dynamically generate the required stub."
package invoke

import (
	"context"
	"fmt"
	"strings"

	"harness2/internal/container"
	"harness2/internal/resilience"
	"harness2/internal/resilience/chaos"
	"harness2/internal/soap"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// Port is a bound, invocable view of a service — the dynamic stub.
type Port interface {
	// Invoke executes one operation.
	Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error)
	// Kind reports the binding kind behind the port.
	Kind() wsdl.BindingKind
	// Endpoint reports the address the port is bound to.
	Endpoint() string
	// Close releases any connection state.
	Close() error
}

// LocalPort invokes a co-located instance directly: the JavaObject
// binding's "local, non mediated" access path. No encoding, no copy.
type LocalPort struct {
	Container *container.Container
	Instance  string
}

var _ Port = (*LocalPort)(nil)

// Invoke implements Port.
func (p *LocalPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	return p.Container.Invoke(ctx, p.Instance, op, args)
}

// Kind implements Port.
func (p *LocalPort) Kind() wsdl.BindingKind { return wsdl.BindJavaObject }

// Endpoint implements Port.
func (p *LocalPort) Endpoint() string { return p.Container.LocalAddress(p.Instance) }

// Close implements Port; local ports hold no resources.
func (p *LocalPort) Close() error { return nil }

// SOAPPort invokes a remote SOAP/HTTP endpoint.
type SOAPPort struct {
	URL    string
	Client soap.Client
	// Headers are attached to every outgoing call (context propagation).
	Headers []soap.Header
}

var _ Port = (*SOAPPort)(nil)

// Invoke implements Port. When ctx carries a trace (the instrumented
// wrapper's invoke.soap span), its identity crosses the wire in an
// h2:Trace header entry, so the server's span becomes that span's child —
// Figure 6's layered call path reconstructed end to end.
func (p *SOAPPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	headers := p.Headers
	if sc, ok := telemetry.FromContext(ctx); ok {
		headers = append(append(make([]soap.Header, 0, len(p.Headers)+1), p.Headers...),
			soap.Header{Name: telemetry.TraceHeaderName, Value: sc.String()})
	}
	params := make([]soap.Param, len(args))
	for i, a := range args {
		params[i] = soap.Param{Name: a.Name, Value: a.Value}
	}
	out, err := p.Client.CallRemote(ctx, p.URL, &soap.Call{Method: op, Params: params, Headers: headers})
	if err != nil {
		return nil, err
	}
	res := make([]wire.Arg, len(out))
	for i, o := range out {
		res[i] = wire.Arg{Name: o.Name, Value: o.Value}
	}
	return res, nil
}

// Kind implements Port.
func (p *SOAPPort) Kind() wsdl.BindingKind { return wsdl.BindSOAP }

// Endpoint implements Port.
func (p *SOAPPort) Endpoint() string { return p.URL }

// Close implements Port.
func (p *SOAPPort) Close() error { return nil }

// Options parameterises Dial.
type Options struct {
	// LocalContainers are containers reachable in this address space,
	// keyed by their names when resolving local:<container>/<instance>
	// addresses.
	LocalContainers []*container.Container
	// Codec configures SOAP array encoding for SOAP ports.
	Codec soap.Codec
	// Forbid excludes binding kinds from selection.
	Forbid []wsdl.BindingKind
	// Telemetry selects the metrics registry of opened ports' call trio,
	// spans and XDR wire counters; nil falls back to the process default,
	// telemetry.Disabled() switches instrumentation off.
	Telemetry *telemetry.Registry
	// Chaos, when non-nil, is applied before every call on every opened
	// port, keyed by the rung's label and the port's endpoint (E13).
	Chaos *chaos.Injector
	// Policy, when non-nil, is applied by DialResilient: the opened ports
	// become the failover ladder of a ResilientPort. Plain Dial ignores it.
	Policy *resilience.Policy
	// Compress is the XDR wire-compression stance (S33). Under Dial,
	// CompressAuto enables adaptive compression iff the binding advertises
	// a `compress` capability whose codec this process implements and the
	// endpoint is another host; explicit modes override both. A port made
	// with NewXDRPort has no advertisement to follow and treats auto as off.
	Compress CompressPolicy
}

func (o Options) forbidden(k wsdl.BindingKind) bool {
	for _, f := range o.Forbid {
		if f == k {
			return true
		}
	}
	return false
}

func (o Options) localContainer(name string) *container.Container {
	for _, c := range o.LocalContainers {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// rung is one row of the binding ladder: a binding kind, the label its
// calls are counted, traced and fault-injected under, and the opener that
// turns one advertised port of that kind into a bare transport. An opener
// returns (nil, nil) for a port that is advertised but unusable from here
// — not co-located, on another host, or refusing the shm handshake.
type rung struct {
	kind  wsdl.BindingKind
	label string // metric label and chaos binding
	span  string // child span of every call: "invoke." + label
	open  func(wsdl.PortRef, Options) (Port, error)
}

// ladder orders the rungs cheapest-first: local in-process access, the
// same-host shared-memory ring, the XDR socket, then the XML transports.
// Dial, OpenAll and DialResilient all walk it, and every port it opens is
// instrumented by its row.
var ladder = [...]rung{
	{wsdl.BindJavaObject, "local", "invoke.local", openLocal},
	{wsdl.BindShm, "shm", "invoke.shm", openShm},
	{wsdl.BindXDR, "xdr", "invoke.xdr", openXDR},
	{wsdl.BindSOAP, "soap", "invoke.soap", openSOAP},
	{wsdl.BindHTTP, "http", "invoke.http", openHTTP},
}

// walk opens the usable ports of defs rung by rung, cheapest first, and
// hands each, instrumented, to yield until yield returns false. With no
// usable port it reports why.
func walk(defs *wsdl.Definitions, opts Options, yield func(Port) bool) error {
	var firstErr error
	opened := false
	for i := range ladder {
		r := &ladder[i]
		if opts.forbidden(r.kind) {
			continue
		}
		for _, ref := range defs.PortsByKind(r.kind) {
			p, err := r.open(ref, opts)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if p == nil {
				continue
			}
			opened = true
			if !yield(r.instrument(p, opts)) {
				return nil
			}
		}
	}
	switch {
	case opened:
		return nil
	case firstErr != nil:
		return fmt.Errorf("invoke: no usable port for %s: %w", defs.Name, firstErr)
	}
	return fmt.Errorf("invoke: no usable port for %s", defs.Name)
}

// Dial selects and opens the cheapest usable port for the service
// described by defs. JavaObject ports are usable only when the advertised
// container is present in opts.LocalContainers and actually hosts the
// pinned instance — otherwise selection falls through to network bindings,
// reproducing Figure 5's local-versus-remote dichotomy.
func Dial(defs *wsdl.Definitions, opts Options) (Port, error) {
	var port Port
	err := walk(defs, opts, func(p Port) bool { port = p; return false })
	return port, err
}

// OpenAll returns one port per advertised binding the options allow,
// cheapest first — used by experiments that compare bindings side by side.
func OpenAll(defs *wsdl.Definitions, opts Options) []Port {
	var out []Port
	_ = walk(defs, opts, func(p Port) bool { out = append(out, p); return true })
	return out
}

func openLocal(ref wsdl.PortRef, opts Options) (Port, error) {
	cname, inst, err := ParseLocalAddress(ref.Port.Address)
	if err != nil {
		return nil, err
	}
	c := opts.localContainer(cname)
	if c == nil {
		return nil, nil // not co-located; not an error, just unusable
	}
	if _, ok := c.Instance(inst); !ok {
		return nil, nil
	}
	return &LocalPort{Container: c, Instance: inst}, nil
}

func openShm(ref wsdl.PortRef, opts Options) (Port, error) {
	host, _, err := ParseShmAddress(ref.Port.Address)
	if err != nil {
		return nil, err
	}
	if !soap.SameHost(host) {
		return nil, nil // different machine; not an error, just unusable
	}
	p, err := NewShmPort(ref.Port.Address, instanceFromDefs(ref))
	if err != nil {
		return nil, err
	}
	// Negotiate at dial time: if the handshake fails (server gone,
	// platform without mmap), the binding is unusable and selection
	// falls through to XDR.
	if err := p.Connect(context.Background()); err != nil {
		_ = p.Close()
		return nil, nil
	}
	return p, nil
}

func openXDR(ref wsdl.PortRef, opts Options) (Port, error) {
	opts.Compress = resolveCompress(opts.Compress, ref.Binding, ref.Port.Address)
	return NewXDRPort(ref.Port.Address, instanceFromDefs(ref), opts), nil
}

func openSOAP(ref wsdl.PortRef, opts Options) (Port, error) {
	return &SOAPPort{URL: ref.Port.Address, Client: soap.Client{Codec: opts.Codec}}, nil
}

func openHTTP(ref wsdl.PortRef, opts Options) (Port, error) {
	return &HTTPPort{URL: ref.Port.Address}, nil
}

// instanceFromDefs derives the target instance for an XDR port: the XDR
// frame carries an instance selector the way "the scheme mimics the
// behavior of the RMI daemon to select the actual target component". The
// SOAP endpoint path convention (…/services/<instance>) and the JavaObject
// binding's pinned instance provide the selector; fall back to the last
// path segment of any SOAP port, then the service name.
func instanceFromDefs(ref wsdl.PortRef) string {
	for _, p := range ref.Service.Ports {
		if strings.HasPrefix(p.Address, "local:") {
			if _, inst, err := ParseLocalAddress(p.Address); err == nil {
				return inst
			}
		}
	}
	for _, p := range ref.Service.Ports {
		if strings.HasPrefix(p.Address, "http://") || strings.HasPrefix(p.Address, "https://") {
			if i := strings.LastIndexByte(p.Address, '/'); i >= 0 && i < len(p.Address)-1 {
				return p.Address[i+1:]
			}
		}
	}
	return strings.TrimSuffix(ref.Service.Name, "Service")
}

// ParseLocalAddress splits a JavaObject locator local:<container>/<instance>.
func ParseLocalAddress(addr string) (containerName, instance string, err error) {
	rest, ok := strings.CutPrefix(addr, "local:")
	if !ok {
		return "", "", fmt.Errorf("invoke: %q is not a local address", addr)
	}
	i := strings.IndexByte(rest, '/')
	if i <= 0 || i == len(rest)-1 {
		return "", "", fmt.Errorf("invoke: malformed local address %q", addr)
	}
	return rest[:i], rest[i+1:], nil
}
