// Package core is the HARNESS II facade: it assembles the substrate
// packages — containers, bindings, registry, DVM — into the deployable
// units a user works with. A Node is a component container with live
// SOAP/HTTP and XDR endpoints; a Framework groups nodes around a lookup
// service and drives the full publish → discover → bind → invoke loop of
// Figures 3 and 4.
package core

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"harness2/internal/container"
	"harness2/internal/invoke"
	"harness2/internal/registry"
	"harness2/internal/resilience"
	"harness2/internal/resilience/chaos"
	"harness2/internal/soap"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// NodeOptions configure a node.
type NodeOptions struct {
	// Addr is the TCP address to listen on; empty means 127.0.0.1:0.
	Addr string
	// Policy is the deployment cost model (default Lightweight).
	Policy container.DeployPolicy
	// Codec configures SOAP array encoding on the server side.
	Codec soap.Codec
	// DisableSOAP / DisableXDR / DisableShm suppress the respective
	// endpoints. The shm endpoint is additionally skipped — without error
	// — on platforms where shared-memory segments are unsupported.
	DisableSOAP bool
	DisableXDR  bool
	DisableShm  bool
	// Compress is the XDR wire-compression policy (S33). The zero value
	// (CompressAuto) accepts adaptive flate from clients and advertises
	// the codec in generated WSDL; CompressOff disables negotiation.
	Compress invoke.CompressPolicy
	// Telemetry selects the metrics registry for the node's container,
	// bindings, and /metrics endpoint; nil falls back to the process
	// default, telemetry.Disabled() switches instrumentation off.
	Telemetry *telemetry.Registry
	// Admission, when non-nil, bounds concurrent invocations across every
	// binding of this node; excess requests are shed with the Overloaded
	// fault (S28). Nil admits everything.
	Admission *resilience.Limiter
	// Chaos, when non-nil, injects deterministic faults at the node's
	// dispatch boundary (S28); nil costs one branch.
	Chaos *chaos.Injector
}

// Node is a running HARNESS II host: a container plus its live bindings.
type Node struct {
	c *container.Container

	httpLn  net.Listener
	httpSrv *http.Server
	xdrSrv  *invoke.XDRServer
	shmSrv  *invoke.ShmServer

	soapBase string
	restBase string
	xdrAddr  string
	shmAddr  string

	closeOnce sync.Once
	closeErr  error
}

// NewNode starts a node named name with live SOAP and XDR listeners.
func NewNode(name string, opts NodeOptions) (*Node, error) {
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	n := &Node{}
	if !opts.DisableSOAP {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("core: node %s: %w", name, err)
		}
		n.httpLn = ln
		n.soapBase = "http://" + ln.Addr().String() + "/services"
		n.restBase = "http://" + ln.Addr().String() + "/rest"
	}
	cfg := container.Config{
		Name:      name,
		SOAPBase:  n.soapBase,
		HTTPBase:  n.restBase,
		Policy:    opts.Policy,
		Telemetry: opts.Telemetry,
		Admission: opts.Admission,
		Chaos:     opts.Chaos,
	}
	// The XDR and shm servers need the container, and the container's
	// advertised addresses need the servers' endpoints: create the
	// container with empty addresses first, then re-create with the final
	// config. The container is cheap; no instances exist yet.
	c := container.New(cfg)
	srvOpts := invoke.ServerOptions{Telemetry: opts.Telemetry, Compress: opts.Compress}
	if !opts.DisableXDR {
		xs, err := invoke.NewXDRServer(c, "127.0.0.1:0", srvOpts)
		if err != nil {
			if n.httpLn != nil {
				_ = n.httpLn.Close()
			}
			return nil, fmt.Errorf("core: node %s: %w", name, err)
		}
		n.xdrSrv = xs
		n.xdrAddr = xs.Addr()
		cfg.XDRAddr = n.xdrAddr
		cfg.XDRCompress = opts.Compress.Advertised()
	}
	if !opts.DisableShm {
		// Best-effort: on platforms without mmap segments the node simply
		// does not advertise the shm rung; clients fall back to XDR.
		if ss, err := invoke.NewShmServer(c, "", srvOpts); err == nil {
			n.shmSrv = ss
			n.shmAddr = ss.Addr()
			cfg.ShmAddr = n.shmAddr
		}
	}
	if cfg.XDRAddr != "" || cfg.ShmAddr != "" {
		c = container.New(cfg)
		if n.xdrSrv != nil {
			n.xdrSrv.Retarget(c)
		}
		if n.shmSrv != nil {
			n.shmSrv.Retarget(c)
		}
	}
	n.c = c
	if n.httpLn != nil {
		mux := http.NewServeMux()
		mux.Handle("/services/", &invoke.SOAPHandler{Container: c, Codec: opts.Codec, Telemetry: opts.Telemetry})
		mux.Handle("/rest/", http.StripPrefix("/rest/", &invoke.HTTPGetHandler{Container: c, Telemetry: opts.Telemetry}))
		wsil := &registry.WSILHandler{Source: c, Base: "http://" + n.httpLn.Addr().String()}
		mux.Handle("/inspection.wsil", wsil)
		mux.Handle("/wsdl/", wsil)
		// The observability plane (telemetry S27): Prometheus text
		// exposition for everything charged to this node's registry.
		mux.Handle("/metrics", telemetry.Handler(telemetry.Or(opts.Telemetry)))
		n.httpSrv = &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() { _ = n.httpSrv.Serve(n.httpLn) }()
	}
	return n, nil
}

// Container returns the node's component container.
func (n *Node) Container() *container.Container { return n.c }

// Name returns the node name.
func (n *Node) Name() string { return n.c.Name() }

// SOAPBase returns the advertised SOAP endpoint base URL (may be empty).
func (n *Node) SOAPBase() string { return n.soapBase }

// RESTBase returns the advertised HTTP GET endpoint base URL (may be
// empty).
func (n *Node) RESTBase() string { return n.restBase }

// XDRAddr returns the advertised XDR endpoint (may be empty).
func (n *Node) XDRAddr() string { return n.xdrAddr }

// ShmAddr returns the advertised shared-memory endpoint (may be empty).
func (n *Node) ShmAddr() string { return n.shmAddr }

// Close shuts down the node's listeners.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		if n.httpSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			n.closeErr = n.httpSrv.Shutdown(ctx)
		}
		if n.xdrSrv != nil {
			if err := n.xdrSrv.Close(); err != nil && n.closeErr == nil {
				n.closeErr = err
			}
		}
		if n.shmSrv != nil {
			if err := n.shmSrv.Close(); err != nil && n.closeErr == nil {
				n.closeErr = err
			}
		}
	})
	return n.closeErr
}

// Framework ties nodes to a lookup service.
type Framework struct {
	Registry registry.Lookup

	mu    sync.Mutex
	nodes map[string]*Node
}

// NewFramework creates a framework around the given lookup service; nil
// creates a fresh in-process registry pre-loaded with the well-known
// binding tModels.
func NewFramework(lookup registry.Lookup) *Framework {
	if lookup == nil {
		reg := registry.New()
		for _, tm := range registry.WellKnownTModels() {
			_ = reg.PublishTModel(tm)
		}
		lookup = reg
	}
	return &Framework{Registry: lookup, nodes: make(map[string]*Node)}
}

// AddNode starts and enrolls a node.
func (f *Framework) AddNode(name string, opts NodeOptions) (*Node, error) {
	n, err := NewNode(name, opts)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[name]; ok {
		_ = n.Close()
		return nil, fmt.Errorf("core: node %q already exists", name)
	}
	f.nodes[name] = n
	return n, nil
}

// Node returns an enrolled node.
func (f *Framework) Node(name string) (*Node, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[name]
	return n, ok
}

// Close shuts every node down.
func (f *Framework) Close() {
	f.mu.Lock()
	nodes := make([]*Node, 0, len(f.nodes))
	for _, n := range f.nodes {
		nodes = append(nodes, n)
	}
	f.nodes = map[string]*Node{}
	f.mu.Unlock()
	for _, n := range nodes {
		_ = n.Close()
	}
}

// localContainers snapshots the containers of all enrolled nodes for
// co-location-aware dialing.
func (f *Framework) localContainers() []*container.Container {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*container.Container, 0, len(f.nodes))
	for _, n := range f.nodes {
		out = append(out, n.c)
	}
	return out
}

// DeployAndPublish deploys class on the named node and publishes the
// instance's WSDL in the framework registry, returning the instance and
// its registry key.
func (f *Framework) DeployAndPublish(node, class, id string) (*container.Instance, string, error) {
	n, ok := f.Node(node)
	if !ok {
		return nil, "", fmt.Errorf("core: no node %q", node)
	}
	inst, _, err := n.c.Deploy(class, id)
	if err != nil {
		return nil, "", err
	}
	key, err := n.c.Expose(inst.ID, f.Registry)
	if err != nil {
		_ = n.c.Undeploy(inst.ID)
		return nil, "", err
	}
	return inst, key, nil
}

// Discover finds services by name in the registry and parses their WSDL.
func (f *Framework) Discover(serviceName string) ([]*wsdl.Definitions, error) {
	entries := f.Registry.FindByName(serviceName)
	return parseEntries(entries)
}

// DiscoverByQuery finds services whose WSDL matches an xmlq path query.
func (f *Framework) DiscoverByQuery(query string) ([]*wsdl.Definitions, error) {
	entries, err := f.Registry.FindByQuery(query)
	if err != nil {
		return nil, err
	}
	return parseEntries(entries)
}

func parseEntries(entries []registry.Entry) ([]*wsdl.Definitions, error) {
	out := make([]*wsdl.Definitions, 0, len(entries))
	for _, e := range entries {
		d, err := wsdl.ParseString(e.WSDL)
		if err != nil {
			return nil, fmt.Errorf("core: entry %s: %w", e.Key, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// Dial opens the cheapest usable port for defs, treating every enrolled
// node as co-located (the framework runs in one address space; remote
// deployments pass their own invoke.Options instead).
func (f *Framework) Dial(defs *wsdl.Definitions) (invoke.Port, error) {
	return invoke.Dial(defs, invoke.Options{LocalContainers: f.localContainers()})
}

// DialRemote opens a port pretending no co-location, forcing a network
// binding — the Figure 5 remote path.
func (f *Framework) DialRemote(defs *wsdl.Definitions) (invoke.Port, error) {
	return invoke.Dial(defs, invoke.Options{})
}

// Call is the one-shot convenience: discover by service name, dial, and
// invoke op, returning the named result.
func (f *Framework) Call(ctx context.Context, service, op string, args []wire.Arg, result string) (any, error) {
	defsList, err := f.Discover(service)
	if err != nil {
		return nil, err
	}
	if len(defsList) == 0 {
		return nil, fmt.Errorf("core: service %q not found", service)
	}
	p, err := f.Dial(defsList[0])
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return invoke.CallOperation(ctx, p, op, args, result)
}
