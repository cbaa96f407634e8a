// Package harness is the public API of the HARNESS II metacomputing
// framework reproduction — "Standards Based Heterogeneous Metacomputing:
// The Design of HARNESS II" (Migliardi, Kurzyniec, Sunderam; IPPS 2002).
//
// The framework combines plugin-based distributed virtual machines with
// Web-Services standards: components are described in WSDL, published in
// a UDDI-style registry, and invoked through pluggable bindings — the
// standard SOAP/HTTP binding, plus the paper's two HPC extensions: the
// JavaObject binding (direct access to a specific stateful instance in a
// co-located container) and the XDR binding (numeric arrays over direct
// sockets).
//
// # Quickstart
//
//	fw := harness.NewFramework(nil)
//	defer fw.Close()
//	node, _ := fw.AddNode("n1", harness.NodeOptions{})
//	harness.RegisterBuiltins(node.Container())
//	fw.DeployAndPublish("n1", "MatMul", "mm")
//	defs, _ := fw.Discover("MatMul")
//	port, _ := fw.Dial(defs[0])   // selects the cheapest usable binding
//	out, _ := port.Invoke(ctx, "getResult", harness.Args(
//	    "mata", a, "matb", b, "n", int32(n)))
//
// The architectural layers (paper Figure 6) are available directly:
// runner boxes (resource abstraction), component containers (local name
// space + lifecycle + exposure control), and distributed component
// containers (DVMs with pluggable state-coherency strategies). The PVM
// emulation plugin (Figure 2) lives in the pvm subsystem, loadable into
// per-node kernels.
package harness

import (
	"harness2/internal/container"
	"harness2/internal/core"
	"harness2/internal/dvm"
	"harness2/internal/events"
	"harness2/internal/invoke"
	"harness2/internal/jspaces"
	"harness2/internal/kernel"
	"harness2/internal/mpi"
	"harness2/internal/namesvc"
	"harness2/internal/pvm"
	"harness2/internal/registry"
	"harness2/internal/runnerbox"
	"harness2/internal/simnet"
	"harness2/internal/soap"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// Framework assembly (see internal/core).
type (
	// Framework groups nodes around a lookup service and drives the
	// publish → discover → bind → invoke loop.
	Framework = core.Framework
	// Node is a running host: a component container with live SOAP and
	// XDR endpoints.
	Node = core.Node
	// NodeOptions configure a node's endpoints and deployment policy.
	NodeOptions = core.NodeOptions
)

// NewFramework creates a framework around lookup (nil = fresh in-process
// registry).
func NewFramework(lookup Lookup) *Framework { return core.NewFramework(lookup) }

// RegisterBuiltins installs the built-in example components (WSTime,
// MatMul, LinSolve) on a container.
func RegisterBuiltins(c *Container) { core.RegisterBuiltins(c) }

// Component containers (see internal/container).
type (
	// Container hosts stateful component instances.
	Container = container.Container
	// ContainerConfig parameterises a container.
	ContainerConfig = container.Config
	// Component is a deployable service implementation.
	Component = container.Component
	// Factory creates component instances for a class.
	Factory = container.Factory
	// FuncComponent adapts per-operation functions into a Component.
	FuncComponent = container.FuncComponent
	// OpFunc implements one operation of a FuncComponent.
	OpFunc = container.OpFunc
	// Instance is one deployed, stateful component.
	Instance = container.Instance
	// DeployPolicy models the cost structure of a deployment technology.
	DeployPolicy = container.DeployPolicy
)

// NewContainer creates a standalone component container.
func NewContainer(cfg ContainerConfig) *Container { return container.New(cfg) }

// Component mobility (paper §6).
type (
	// Stateful components can externalise and restore state, enabling
	// migration between containers.
	Stateful = container.Stateful
	// StateField is one named piece of externalised component state.
	StateField = container.Field
)

// Migrate moves a stateful instance between containers, preserving its ID
// and state (stop-and-copy; the source restarts on failure).
func Migrate(src *Container, id string, dst *Container) error {
	return container.Migrate(src, id, dst)
}

// FuncFactory wraps a FuncComponent builder into a Factory.
func FuncFactory(build func() *FuncComponent) Factory { return container.FuncFactory(build) }

// Deployment policies contrasted by experiment E4.
var (
	// Lightweight is the HARNESS II automated-instantiation policy.
	Lightweight = container.Lightweight
	// Heavyweight models the era application-server deployment flow.
	Heavyweight = container.Heavyweight
)

// Service description (see internal/wsdl).
type (
	// Definitions is a complete WSDL document.
	Definitions = wsdl.Definitions
	// ServiceSpec describes a service implementation for WSDL generation.
	ServiceSpec = wsdl.ServiceSpec
	// OpSpec describes one operation of a ServiceSpec.
	OpSpec = wsdl.OpSpec
	// ParamSpec describes one named, typed parameter.
	ParamSpec = wsdl.ParamSpec
	// EndpointSet carries the concrete addresses to advertise per binding.
	EndpointSet = wsdl.EndpointSet
	// BindingKind identifies a concrete access mechanism.
	BindingKind = wsdl.BindingKind
)

// Binding kinds.
const (
	BindSOAP       = wsdl.BindSOAP
	BindHTTP       = wsdl.BindHTTP
	BindXDR        = wsdl.BindXDR
	BindJavaObject = wsdl.BindJavaObject
	BindShm        = wsdl.BindShm
)

// GenerateWSDL produces a complete WSDL document for spec — the
// servicegen/wsdlgen tooling equivalent.
func GenerateWSDL(spec ServiceSpec, eps EndpointSet) (*Definitions, error) {
	return wsdl.Generate(spec, eps)
}

// ParseWSDL parses a WSDL document from XML text.
func ParseWSDL(s string) (*Definitions, error) { return wsdl.ParseString(s) }

// Lookup / registry (see internal/registry).
type (
	// Lookup is the discovery interface shared by local and remote
	// registries.
	Lookup = registry.Lookup
	// Registry is the in-process UDDI-style lookup service.
	Registry = registry.Registry
	// RegistryEntry is one published service description.
	RegistryEntry = registry.Entry
	// RegistryServer exposes a Registry as a SOAP web service.
	RegistryServer = registry.Server
	// RemoteRegistry is a SOAP client view of a registry server.
	RemoteRegistry = registry.Remote
)

// NewRegistry creates an empty in-process registry.
func NewRegistry() *Registry { return registry.New() }

// NewRegistryServer wraps a registry in a SOAP dispatcher (http.Handler).
func NewRegistryServer(r *Registry) *RegistryServer { return registry.NewServer(r) }

// NewRemoteRegistry returns a client for the registry at endpoint.
func NewRemoteRegistry(endpoint string) *RemoteRegistry { return registry.NewRemote(endpoint) }

// DiscoverViaWSIL performs registry-free discovery: it fetches a node's
// WS-Inspection document and every WSDL description it references. Every
// framework node serves one at <base>/inspection.wsil.
func DiscoverViaWSIL(url string) ([]*Definitions, error) { return registry.DiscoverViaWSIL(url) }

// Invocation (see internal/invoke).
type (
	// Port is a bound, invocable view of a service (the dynamic stub).
	Port = invoke.Port
	// DialOptions parameterise binding selection.
	DialOptions = invoke.Options
)

// Dial selects and opens the cheapest usable port for a service.
func Dial(defs *Definitions, opts DialOptions) (Port, error) { return invoke.Dial(defs, opts) }

// OpenAll returns one port per advertised binding, cheapest first.
func OpenAll(defs *Definitions, opts DialOptions) []Port { return invoke.OpenAll(defs, opts) }

// Wire values (see internal/wire).
type (
	// Arg is a named invocation argument.
	Arg = wire.Arg
	// Kind enumerates wire-level value types.
	Kind = wire.Kind
)

// Wire kinds for ParamSpec declarations.
const (
	KindBool         = wire.KindBool
	KindInt32        = wire.KindInt32
	KindInt64        = wire.KindInt64
	KindFloat32      = wire.KindFloat32
	KindFloat64      = wire.KindFloat64
	KindString       = wire.KindString
	KindBytes        = wire.KindBytes
	KindBoolArray    = wire.KindBoolArray
	KindInt32Array   = wire.KindInt32Array
	KindInt64Array   = wire.KindInt64Array
	KindFloat32Array = wire.KindFloat32Array
	KindFloat64Array = wire.KindFloat64Array
	KindStringArray  = wire.KindStringArray
	KindStruct       = wire.KindStruct
)

// Args builds an argument list from alternating name/value pairs.
func Args(pairs ...any) []Arg { return wire.Args(pairs...) }

// GetArg returns the value of the named argument.
func GetArg(args []Arg, name string) (any, bool) { return wire.GetArg(args, name) }

// SOAP codec control (see internal/soap).
type (
	// SOAPCodec encodes/decodes envelopes with a fixed array encoding.
	SOAPCodec = soap.Codec
	// ArrayEncoding selects how numeric arrays travel inside envelopes.
	ArrayEncoding = soap.ArrayEncoding
)

// Array encodings for the SOAP binding (experiment E2 compares them).
const (
	EncodeBase64      = soap.EncodeBase64
	EncodeElementwise = soap.EncodeElementwise
	EncodeHex         = soap.EncodeHex
)

// Distributed virtual machines (see internal/dvm).
type (
	// DVM is a distributed component container with a unified name space.
	DVM = dvm.DVM
	// Coherency is the pluggable global-state strategy interface.
	Coherency = dvm.Coherency
	// DVMQuery selects service-table rows.
	DVMQuery = dvm.Query
	// ServiceEntry is one row of the DVM-wide service table.
	ServiceEntry = dvm.ServiceEntry
)

// NewDVM creates a DVM with the given name and coherency strategy.
func NewDVM(name string, coh Coherency) *DVM { return dvm.New(name, coh) }

// FailureDetector is the heartbeat monitor used to evict dead members.
type FailureDetector = dvm.Detector

// NewFailureDetector returns a detector over the DVM's coherency fabric.
func NewFailureDetector(d *DVM, retries int) *FailureDetector { return dvm.NewDetector(d, retries) }

// Coherency strategies of Section 6.
func NewFullSync(net *SimNetwork) Coherency      { return dvm.NewFullSync(net) }
func NewDecentralized(net *SimNetwork) Coherency { return dvm.NewDecentralized(net) }
func NewHybrid(net *SimNetwork, k int) Coherency { return dvm.NewHybrid(net, k) }

// Simulated fabric (see internal/simnet).
type (
	// SimNetwork is the deterministic virtual-time network fabric.
	SimNetwork = simnet.Network
	// LinkConfig models one link class (latency + bandwidth).
	LinkConfig = simnet.LinkConfig
)

// Link classes roughly matching the paper's era.
var (
	// LAN is a switched-Ethernet cluster link.
	LAN = simnet.LAN
	// WAN is a wide-area internet path.
	WAN = simnet.WAN
)

// NewSimNetwork creates a fabric whose links default to def.
func NewSimNetwork(def LinkConfig) *SimNetwork { return simnet.New(def) }

// Numeric kernels of the built-in components.
var (
	// MatMul multiplies two n×n row-major matrices (Figure 8 service).
	MatMul = core.MatMul
	// LinSolve solves Ax=b by LU decomposition (the LAPACK stand-in).
	LinSolve = core.LinSolve
)

// SOAPHeader is a SOAP 1.1 header entry (mustUnderstand supported).
type SOAPHeader = soap.Header

// Plugin backplane (see internal/kernel) and the environment-emulation
// plugins the paper names: PVM, MPI, and JavaSpaces.
type (
	// Kernel is a per-node plugin backplane (Figure 1).
	Kernel = kernel.Kernel
	// EventService is the event-management plugin (Figure 2).
	EventService = events.Service
	// NameService is the table-lookup plugin (Figure 2).
	NameService = namesvc.Service
	// PVMRouter is the inter-kernel transport domain for hpvmd daemons.
	PVMRouter = pvm.Router
	// PVMDaemon is the hpvmd plugin instance on one kernel.
	PVMDaemon = pvm.Daemon
	// PVMTask is a running PVM task handle.
	PVMTask = pvm.Task
	// MPIWorld is an MPI job factory over hpvmd daemons.
	MPIWorld = mpi.World
	// MPIComm is the per-rank communicator.
	MPIComm = mpi.Comm
	// TupleSpace is the JavaSpaces-style coordination space.
	TupleSpace = jspaces.Space
	// RunnerBox is the resource abstraction layer service.
	RunnerBox = runnerbox.Box
)

// NewKernel creates a kernel named name over a fresh container.
func NewKernel(name string, cfg ContainerConfig) *Kernel { return kernel.New(name, cfg) }

// NewPVMRouter creates a PVM transport domain; net may be nil (no traffic
// accounting).
func NewPVMRouter(net *SimNetwork) *PVMRouter { return pvm.NewRouter(net) }

// NewPVMKernel assembles the Figure 1/2 stack on one kernel: events and
// namesvc plugins plus an hpvmd registered against router, all loaded.
// The daemon is returned ready for RegisterTaskFunc/Spawn.
func NewPVMKernel(name string, router *PVMRouter) (*Kernel, *PVMDaemon, error) {
	k := kernel.New(name, ContainerConfig{})
	k.RegisterPlugin(events.PluginClass, events.Factory())
	k.RegisterPlugin(namesvc.PluginClass, namesvc.Factory())
	k.RegisterPlugin(pvm.PluginClass, pvm.Factory(name, router),
		events.PluginClass, namesvc.PluginClass)
	if err := k.Load(pvm.PluginClass); err != nil {
		return nil, nil, err
	}
	comp, _ := k.Plugin(pvm.PluginClass)
	return k, comp.(*pvm.Daemon), nil
}

// NewMPIWorld creates an MPI job factory over the given daemons.
func NewMPIWorld(router *PVMRouter, daemons []*PVMDaemon) (*MPIWorld, error) {
	return mpi.NewWorld(router, daemons)
}

// NewTupleSpace creates an empty JavaSpaces-style space.
func NewTupleSpace() *TupleSpace { return jspaces.New() }

// NewRunnerBox enrolls a local resource behind the runner-box service.
func NewRunnerBox() *RunnerBox { return runnerbox.New(runnerbox.NewLocalBackend()) }

// ManagerFactory returns the container remote-management component
// factory; deploy it (conventionally as container.ManagerClass) to make a
// container remotely administerable.
func ManagerFactory() Factory { return container.ManagerFactory() }

// BridgeContainerEvents publishes a container's lifecycle (deploy,
// undeploy, start, stop, expose, unexpose) through an event service.
func BridgeContainerEvents(s *EventService, c *Container) { events.BridgeContainer(s, c) }
