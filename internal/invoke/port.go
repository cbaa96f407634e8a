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
	"sync"

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
	// Telemetry selects the metrics registry; nil falls back to the
	// process default, telemetry.Disabled() switches instrumentation off.
	Telemetry *telemetry.Registry
	// Chaos, when non-nil, injects deterministic faults before dispatch
	// (experiment E13). The nil injector costs one branch.
	Chaos *chaos.Injector

	minit sync.Once
	m     bindingMetrics
}

var _ Port = (*LocalPort)(nil)

func (p *LocalPort) metrics() *bindingMetrics {
	p.minit.Do(func() { p.m = newBindingMetrics(telemetry.Or(p.Telemetry), "local") })
	return &p.m
}

// Invoke implements Port. It honours an already-cancelled context before
// dispatching: the local path has no I/O to fail on, so without this
// check a cancelled caller would still execute the operation — unlike
// every network binding, which surfaces ctx errors from the transport.
func (p *LocalPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Chaos.Apply(ctx, "local", op, p.Instance); err != nil {
		return nil, err
	}
	m := p.metrics()
	h, start := m.begin(op)
	ctx, sp := telemetry.Or(p.Telemetry).ChildSpan(ctx, "invoke.local")
	out, err := p.Container.Invoke(ctx, p.Instance, op, args)
	sp.SetError(err)
	sp.End()
	m.done(op, h, start, err)
	return out, err
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
	// Telemetry selects the metrics registry; nil falls back to the
	// process default, telemetry.Disabled() switches instrumentation off.
	Telemetry *telemetry.Registry
	// Chaos, when non-nil, injects deterministic faults before the wire
	// call (experiment E13). The nil injector costs one branch.
	Chaos *chaos.Injector

	minit sync.Once
	m     bindingMetrics
}

var _ Port = (*SOAPPort)(nil)

func (p *SOAPPort) metrics() *bindingMetrics {
	p.minit.Do(func() { p.m = newBindingMetrics(telemetry.Or(p.Telemetry), "soap") })
	return &p.m
}

// Invoke implements Port. When the caller's context carries a trace, the
// hop is recorded as a child span and the trace identity crosses the wire
// in an h2:Trace header entry, so the server's span becomes this span's
// child — Figure 6's layered call path reconstructed end to end.
func (p *SOAPPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	if err := p.Chaos.Apply(ctx, "soap", op, p.URL); err != nil {
		return nil, err
	}
	m := p.metrics()
	h, start := m.begin(op)
	_, sp := telemetry.Or(p.Telemetry).ChildSpan(ctx, "invoke.soap")
	headers := p.Headers
	if sc := sp.Context(); sc.Valid() {
		headers = append(append(make([]soap.Header, 0, len(p.Headers)+1), p.Headers...),
			soap.Header{Name: telemetry.TraceHeaderName, Value: sc.String()})
	}
	params := make([]soap.Param, len(args))
	for i, a := range args {
		params[i] = soap.Param{Name: a.Name, Value: a.Value}
	}
	out, err := p.Client.CallRemote(p.URL, &soap.Call{Method: op, Params: params, Headers: headers})
	sp.SetError(err)
	sp.End()
	m.done(op, h, start, err)
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
	// Telemetry selects the metrics registry for opened ports; nil falls
	// back to the process default, telemetry.Disabled() switches
	// instrumentation off.
	Telemetry *telemetry.Registry
	// Chaos, when non-nil, is attached to every opened port so its rules
	// can inject deterministic faults at each client transport (E13).
	Chaos *chaos.Injector
	// Policy, when non-nil, is applied by DialResilient: the opened ports
	// become the failover ladder of a ResilientPort. Plain Dial ignores it.
	Policy *resilience.Policy
	// Compress is the XDR wire-compression stance (S33). CompressAuto
	// enables adaptive compression iff the binding advertises a `compress`
	// capability whose codec this process implements; explicit modes
	// override the advertisement.
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

// preference orders binding kinds cheapest-first for selection: local
// in-process access, then the same-host shared-memory ring, then the
// XDR socket, then the XML transports.
var preference = []wsdl.BindingKind{
	wsdl.BindJavaObject, wsdl.BindShm, wsdl.BindXDR, wsdl.BindSOAP, wsdl.BindHTTP,
}

// Dial selects and opens the cheapest usable port for the service
// described by defs. JavaObject ports are usable only when the advertised
// container is present in opts.LocalContainers and actually hosts the
// pinned instance — otherwise selection falls through to network bindings,
// reproducing Figure 5's local-versus-remote dichotomy.
func Dial(defs *wsdl.Definitions, opts Options) (Port, error) {
	var firstErr error
	for _, kind := range preference {
		if opts.forbidden(kind) {
			continue
		}
		for _, ref := range defs.PortsByKind(kind) {
			p, err := openPort(ref, opts)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if p != nil {
				return p, nil
			}
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("invoke: no usable port for %s: %w", defs.Name, firstErr)
	}
	return nil, fmt.Errorf("invoke: no usable port for %s", defs.Name)
}

// OpenAll returns one port per advertised binding the options allow,
// cheapest first — used by experiments that compare bindings side by side.
func OpenAll(defs *wsdl.Definitions, opts Options) []Port {
	var out []Port
	for _, kind := range preference {
		if opts.forbidden(kind) {
			continue
		}
		for _, ref := range defs.PortsByKind(kind) {
			if p, err := openPort(ref, opts); err == nil && p != nil {
				out = append(out, p)
			}
		}
	}
	return out
}

func openPort(ref wsdl.PortRef, opts Options) (Port, error) {
	switch ref.Binding.Kind {
	case wsdl.BindJavaObject:
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
		return &LocalPort{Container: c, Instance: inst, Telemetry: opts.Telemetry, Chaos: opts.Chaos}, nil
	case wsdl.BindShm:
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
		p.SetTelemetry(opts.Telemetry)
		p.SetChaos(opts.Chaos)
		// Negotiate at dial time: if the handshake fails (server gone,
		// platform without mmap), the binding is unusable and selection
		// falls through to XDR.
		if err := p.Connect(context.Background()); err != nil {
			_ = p.Close()
			return nil, nil
		}
		return p, nil
	case wsdl.BindXDR:
		inst := instanceFromDefs(ref)
		p := NewXDRPort(ref.Port.Address, inst)
		p.SetTelemetry(opts.Telemetry)
		p.SetChaos(opts.Chaos)
		p.SetCompression(resolveCompress(opts.Compress, ref.Binding, ref.Port.Address))
		return p, nil
	case wsdl.BindSOAP:
		return &SOAPPort{URL: ref.Port.Address, Client: soap.Client{Codec: opts.Codec}, Telemetry: opts.Telemetry, Chaos: opts.Chaos}, nil
	case wsdl.BindHTTP:
		return &HTTPPort{URL: ref.Port.Address, Telemetry: opts.Telemetry, Chaos: opts.Chaos}, nil
	}
	return nil, fmt.Errorf("invoke: unknown binding kind %v", ref.Binding.Kind)
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
