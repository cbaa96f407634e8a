// Package container implements the HARNESS II component container — the
// middle abstraction layer of the architecture (Figure 6). A container
// "defines a local name space, lookup service and a management service for
// other components": it deploys component instances from registered
// factories, dispatches invocations to specific stateful instances (the
// JavaObject binding target), answers local lookup queries, and controls
// each instance's exposure level (private, or published to one or more
// registries — a run-time decision that can be reviewed at any time).
//
// The package also models the paper's deployment-cost contrast: the
// lightweight HARNESS II container instantiates volatile components
// immediately, while a DeployPolicy can emulate the heavyweight
// e-commerce application-server flow (restart cost, human approval) that
// the paper argues is unsuitable for metacomputing (experiment E4).
package container

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"harness2/internal/registry"
	"harness2/internal/resilience"
	"harness2/internal/resilience/chaos"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// Errors returned by container operations.
var (
	ErrNoFactory    = errors.New("container: no factory for class")
	ErrNoInstance   = errors.New("container: no such instance")
	ErrDuplicateID  = errors.New("container: instance id already in use")
	ErrNotExposed   = errors.New("container: instance not exposed")
	ErrStopped      = errors.New("container: instance is stopped")
	ErrNoSuchMethod = errors.New("container: no such operation")
)

// Component is a deployable service implementation.
type Component interface {
	// Describe returns the service descriptor used to generate WSDL.
	Describe() wsdl.ServiceSpec
	// Invoke executes one operation.
	//
	// The component borrows args: the slice and every slice inside it
	// (numeric arrays, opaque bytes) are valid until Invoke returns and
	// not after. Over the local binding they are the caller's own slices;
	// on the XDR and shm servers they are memory of the worker that
	// decoded the request, handed to the next request once this one is
	// answered (xdr.Arena). A component that wants to keep an argument
	// clones it. Results may alias arguments: whoever called Invoke reads
	// the results before it reuses anything it lent.
	Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error)
}

// Attachable components are given their hosting container on deployment,
// enabling the inter-component leveraging of Figure 2 (a component can
// look up and call co-located services through local bindings).
type Attachable interface {
	Attach(host *Container) error
}

// Detachable components are notified on undeployment.
type Detachable interface {
	Detach() error
}

// Factory creates component instances for a class. Registering factories
// is the analogue of installing plugin code in the Harness repository.
type Factory func() (Component, error)

// Exposure is an instance's visibility level.
type Exposure int

const (
	// Private instances serve only co-located components.
	Private Exposure = iota
	// Public instances are published in one or more lookup services.
	Public
)

// String names the exposure level.
func (e Exposure) String() string {
	if e == Public {
		return "public"
	}
	return "private"
}

// Status is an instance lifecycle state.
type Status int

// Instance lifecycle: deployed instances start Running; Stop moves them to
// Stopped (refusing invocations) and Start back.
const (
	Running Status = iota
	Stopped
)

// Instance is one deployed, stateful component.
type Instance struct {
	ID       string
	Class    string
	Exposure Exposure

	mu        sync.Mutex
	status    Status
	component Component
	spec      wsdl.ServiceSpec
	// published maps registry identity (pointer) to the entry key so the
	// container can unpublish on exposure changes and undeployment.
	published map[registry.Lookup]string
	// keepers holds the lease-renewal loops of leased registrations
	// (ExposeLeased); stopped on Unexpose/Undeploy.
	keepers  map[registry.Lookup]*registry.LeaseKeeper
	deployed time.Time
	invokes  int64
}

// Status returns the instance lifecycle state.
func (in *Instance) Status() Status {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.status
}

// Spec returns the instance's service descriptor.
func (in *Instance) Spec() wsdl.ServiceSpec { return in.spec }

// Invocations returns how many operations the instance has served.
func (in *Instance) Invocations() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.invokes
}

// Component returns the underlying implementation. Co-located callers may
// type-assert it for direct in-process use — this is exactly the local
// JavaObject access path.
func (in *Instance) Component() Component { return in.component }

// DeployPolicy models the cost structure of a deployment technology.
type DeployPolicy struct {
	// Name labels the policy in experiment output.
	Name string
	// RestartCost is charged once per deployment when the technology
	// requires a container/application-server restart.
	RestartCost time.Duration
	// ApprovalCost models the human interaction the paper says era
	// deployment "usually require[s]".
	ApprovalCost time.Duration
	// PerServiceCost is the mechanical per-service installation cost.
	PerServiceCost time.Duration
	// Sleep, when true, physically sleeps the modelled costs instead of
	// only accounting them (for end-to-end demos; experiments keep it
	// false and read the returned cost).
	Sleep bool
}

// Cost returns the modelled total deployment latency under the policy.
func (p DeployPolicy) Cost() time.Duration {
	return p.RestartCost + p.ApprovalCost + p.PerServiceCost
}

// Lightweight is the HARNESS II container policy: automated instantiation
// with microsecond-scale bookkeeping only.
var Lightweight = DeployPolicy{Name: "harness2-lightweight", PerServiceCost: 50 * time.Microsecond}

// Heavyweight models the era application-server flow the paper contrasts
// against: minutes of human interaction plus a server restart.
var Heavyweight = DeployPolicy{
	Name:           "appserver-heavyweight",
	RestartCost:    30 * time.Second,
	ApprovalCost:   5 * time.Minute,
	PerServiceCost: 2 * time.Second,
}

// Config parameterises a container.
type Config struct {
	// Name is the container's name-space identifier.
	Name string
	// SOAPBase is the advertised base URL for SOAP endpoints
	// (e.g. http://host:8080/services); empty disables SOAP advertising.
	SOAPBase string
	// HTTPBase is the advertised base URL for HTTP GET (urlEncoded)
	// endpoints (e.g. http://host:8080/rest); empty disables them.
	HTTPBase string
	// XDRAddr is the advertised host:port of the XDR socket endpoint;
	// empty disables XDR advertising.
	XDRAddr string
	// XDRCompress names the wire-compression codec the XDR server accepts
	// (v3 negotiation, e.g. "flate"); empty suppresses the `compress`
	// capability in generated WSDL and remote clients stay raw.
	XDRCompress string
	// ShmAddr is the advertised shared-memory handshake address
	// (shm:<hostname>:<socket path>); empty disables shm advertising.
	// Like XDR, the binding is offered only for numeric-only services.
	ShmAddr string
	// Policy is the deployment cost model; zero value means Lightweight.
	Policy DeployPolicy
	// Telemetry selects the metrics registry; nil falls back to the
	// process default, telemetry.Disabled() switches instrumentation off.
	Telemetry *telemetry.Registry
	// Admission, when non-nil, bounds concurrent invocations across every
	// binding that dispatches into this container: excess requests are
	// shed with the distinguished Overloaded fault (S28). Nil admits
	// everything at the cost of one branch.
	Admission *resilience.Limiter
	// Chaos, when non-nil, injects deterministic faults at the dispatch
	// boundary — site ("container", op, instanceID) — so every binding
	// that reaches this container is exercised by the same schedule. Nil
	// costs one branch (S28).
	Chaos *chaos.Injector
}

// LifecycleEvent describes one container state change, delivered to
// registered listeners — the hook through which the Harness event-
// management plugin observes its own container (see events.BridgeContainer).
type LifecycleEvent struct {
	// Kind is one of deploy, undeploy, start, stop, expose, unexpose.
	Kind  string
	ID    string
	Class string
}

// LifecycleListener receives container lifecycle events. Listeners run
// synchronously on the mutating goroutine and must not block.
type LifecycleListener func(LifecycleEvent)

// Container hosts component instances.
type Container struct {
	cfg Config

	// met bundles the lifecycle instrument set (telemetry S27). All
	// handles are nil-safe, so a container configured with
	// telemetry.Disabled() pays a branch per event and nothing else.
	met struct {
		live    *telemetry.Gauge        // currently deployed instances
		invokes *telemetry.Counter      // operations dispatched locally
		lifeNs  *telemetry.HistogramVec // op: deploy, start, stop, migrate
		events  *telemetry.CounterVec   // lifecycle event kinds
	}

	mu        sync.RWMutex
	factories map[string]Factory
	instances map[string]*Instance
	listeners []LifecycleListener
	seq       int
}

// New creates an empty container.
func New(cfg Config) *Container {
	if cfg.Name == "" {
		cfg.Name = "container"
	}
	if cfg.Policy.Name == "" {
		cfg.Policy = Lightweight
	}
	c := &Container{
		cfg:       cfg,
		factories: make(map[string]Factory),
		instances: make(map[string]*Instance),
	}
	tel := telemetry.Or(cfg.Telemetry)
	tel.Help("harness_container_instances", "deployed instances by container")
	tel.Help("harness_container_invocations_total", "operations dispatched by container")
	tel.Help("harness_container_lifecycle_ns", "lifecycle operation latency by container and op")
	tel.Help("harness_container_lifecycle_events_total", "lifecycle events by container and kind")
	c.met.live = tel.Gauge("harness_container_instances", "container", cfg.Name)
	c.met.invokes = tel.Counter("harness_container_invocations_total", "container", cfg.Name)
	c.met.lifeNs = tel.HistogramVec("harness_container_lifecycle_ns", "op", "container", cfg.Name)
	c.met.events = tel.CounterVec("harness_container_lifecycle_events_total", "kind", "container", cfg.Name)
	return c
}

// Name returns the container's name-space identifier.
func (c *Container) Name() string { return c.cfg.Name }

// Policy returns the container's deployment policy.
func (c *Container) Policy() DeployPolicy { return c.cfg.Policy }

// AddLifecycleListener registers a lifecycle observer.
func (c *Container) AddLifecycleListener(fn LifecycleListener) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.listeners = append(c.listeners, fn)
}

func (c *Container) notify(kind, id, class string) {
	c.mu.RLock()
	listeners := append([]LifecycleListener(nil), c.listeners...)
	c.mu.RUnlock()
	c.met.events.With(kind).Inc()
	ev := LifecycleEvent{Kind: kind, ID: id, Class: class}
	for _, fn := range listeners {
		fn(ev)
	}
}

// RegisterFactory installs the code for a component class.
func (c *Container) RegisterFactory(class string, f Factory) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.factories[class] = f
}

// Classes lists registered component classes, sorted.
func (c *Container) Classes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.factories))
	for k := range c.factories {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Deploy instantiates class under the given instance ID (auto-generated
// when empty) and returns the instance plus the modelled deployment cost
// under the container's policy.
func (c *Container) Deploy(class, id string) (*Instance, time.Duration, error) {
	depHist := c.met.lifeNs.With("deploy")
	depStart := depHist.Start()
	c.mu.Lock()
	f, ok := c.factories[class]
	if !ok {
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: %q", ErrNoFactory, class)
	}
	if id == "" {
		c.seq++
		id = fmt.Sprintf("%s-%d", class, c.seq)
	}
	if _, exists := c.instances[id]; exists {
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	// Reserve the ID before running user code outside the lock.
	placeholder := &Instance{ID: id, Class: class}
	c.instances[id] = placeholder
	policy := c.cfg.Policy
	c.mu.Unlock()

	comp, err := f()
	if err == nil {
		if a, ok := comp.(Attachable); ok {
			err = a.Attach(c)
		}
	}
	if err != nil {
		c.mu.Lock()
		delete(c.instances, id)
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("container: deploy %s/%s: %w", class, id, err)
	}
	inst := &Instance{
		ID:        id,
		Class:     class,
		component: comp,
		spec:      comp.Describe(),
		published: make(map[registry.Lookup]string),
		keepers:   make(map[registry.Lookup]*registry.LeaseKeeper),
		deployed:  time.Now(),
	}
	c.mu.Lock()
	c.instances[id] = inst
	c.mu.Unlock()
	if policy.Sleep && policy.Cost() > 0 {
		time.Sleep(policy.Cost())
	}
	c.met.live.Inc()
	depHist.ObserveSince(depStart)
	c.notify("deploy", id, class)
	return inst, policy.Cost(), nil
}

// Undeploy stops and removes an instance, unpublishing it everywhere.
func (c *Container) Undeploy(id string) error {
	c.mu.Lock()
	inst, ok := c.instances[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoInstance, id)
	}
	delete(c.instances, id)
	c.mu.Unlock()
	inst.mu.Lock()
	pubs := inst.published
	inst.published = map[registry.Lookup]string{}
	keepers := inst.keepers
	inst.keepers = map[registry.Lookup]*registry.LeaseKeeper{}
	comp := inst.component
	inst.mu.Unlock()
	for reg, k := range keepers {
		k.Stop()
		// The keeper's key may have changed across re-publications; prefer
		// its current view over the one recorded at exposure time.
		pubs[reg] = k.Key()
	}
	for reg, key := range pubs {
		_ = reg.Remove(key)
	}
	c.met.live.Dec()
	c.notify("undeploy", id, inst.Class)
	if d, ok := comp.(Detachable); ok && comp != nil {
		return d.Detach()
	}
	return nil
}

// Instance returns a deployed instance by ID.
func (c *Container) Instance(id string) (*Instance, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	inst, ok := c.instances[id]
	if !ok || inst.component == nil {
		return nil, false
	}
	return inst, true
}

// Instances returns all deployed instances sorted by ID.
func (c *Container) Instances() []*Instance {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Instance, 0, len(c.instances))
	for _, in := range c.instances {
		if in.component != nil {
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FindByClass returns deployed instances of the given class — the local
// lookup capability a runner box lacks.
func (c *Container) FindByClass(class string) []*Instance {
	var out []*Instance
	for _, in := range c.Instances() {
		if in.Class == class {
			out = append(out, in)
		}
	}
	return out
}

// FindByOperation returns instances whose service exposes the named
// operation.
func (c *Container) FindByOperation(op string) []*Instance {
	var out []*Instance
	for _, in := range c.Instances() {
		for _, o := range in.spec.Operations {
			if o.Name == op {
				out = append(out, in)
				break
			}
		}
	}
	return out
}

// Invoke dispatches an operation on a specific instance — the local
// (JavaObject) access path: no encoding, no network hop.
func (c *Container) Invoke(ctx context.Context, id, op string, args []wire.Arg) ([]wire.Arg, error) {
	inst, ok := c.Instance(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoInstance, id)
	}
	release, err := c.cfg.Admission.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if err := c.cfg.Chaos.Apply(ctx, "container", op, id); err != nil {
		return nil, err
	}
	c.met.invokes.Inc()
	return inst.invoke(ctx, op, args)
}

func (in *Instance) invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	in.mu.Lock()
	if in.status != Running {
		in.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrStopped, in.ID)
	}
	found := false
	for _, o := range in.spec.Operations {
		if o.Name == op {
			found = true
			break
		}
	}
	in.invokes++
	comp := in.component
	in.mu.Unlock()
	if !found {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, in.Class, op)
	}
	return comp.Invoke(ctx, op, args)
}

// Stop pauses an instance: subsequent invocations fail until Start.
func (c *Container) Stop(id string) error { return c.setStatus(id, Stopped) }

// Start resumes a stopped instance.
func (c *Container) Start(id string) error { return c.setStatus(id, Running) }

func (c *Container) setStatus(id string, s Status) error {
	kind := "start"
	if s == Stopped {
		kind = "stop"
	}
	h := c.met.lifeNs.With(kind)
	start := h.Start()
	inst, ok := c.Instance(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoInstance, id)
	}
	inst.mu.Lock()
	inst.status = s
	inst.mu.Unlock()
	h.ObserveSince(start)
	c.notify(kind, id, inst.Class)
	return nil
}

// WSDLFor generates the instance's complete WSDL document, advertising
// every binding the container can serve: each network binding whose
// address is configured and which carries every parameter of the service
// (wsdl.ServiceSpec.CarriedBy), and the JavaObject binding pinning this
// exact instance.
func (c *Container) WSDLFor(id string) (*wsdl.Definitions, error) {
	inst, ok := c.Instance(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoInstance, id)
	}
	eps := wsdl.EndpointSet{
		LocalAddress: c.LocalAddress(id),
		Class:        inst.Class,
		Instance:     inst.ID,
	}
	if c.cfg.SOAPBase != "" {
		eps.SOAPAddress = strings.TrimSuffix(c.cfg.SOAPBase, "/") + "/" + inst.ID
	}
	if c.cfg.HTTPBase != "" && inst.spec.CarriedBy(wsdl.BindHTTP) == nil {
		eps.HTTPAddress = strings.TrimSuffix(c.cfg.HTTPBase, "/") + "/" + inst.ID
	}
	if c.cfg.XDRAddr != "" && inst.spec.CarriedBy(wsdl.BindXDR) == nil {
		eps.XDRAddress = c.cfg.XDRAddr
		eps.XDRCompress = c.cfg.XDRCompress
	}
	if c.cfg.ShmAddr != "" && inst.spec.CarriedBy(wsdl.BindShm) == nil {
		eps.ShmAddress = c.cfg.ShmAddr
	}
	return wsdl.Generate(inst.spec, eps)
}

// LocalAddress returns the JavaObject locator for an instance.
func (c *Container) LocalAddress(id string) string {
	return "local:" + c.cfg.Name + "/" + id
}

// InspectableServices implements registry.WSDLSource: every deployed
// instance is listed under its service name with its instance ID as the
// document locator. Mounting a WSIL handler is itself the provider's
// exposure decision for the node.
func (c *Container) InspectableServices() []registry.ServiceRef {
	var out []registry.ServiceRef
	for _, in := range c.Instances() {
		out = append(out, registry.ServiceRef{Name: in.Spec().Name, Location: in.ID})
	}
	return out
}

// WSDLDocument implements registry.WSDLSource.
func (c *Container) WSDLDocument(id string) (string, error) {
	defs, err := c.WSDLFor(id)
	if err != nil {
		return "", err
	}
	return defs.String(), nil
}

// Expose publishes an instance's WSDL into reg and marks it Public. The
// provider can call it (and Unexpose) at any time: "the decision can be
// reviewed at any time, thus allowing published services to be removed and
// private services to be published".
func (c *Container) Expose(id string, reg registry.Lookup) (string, error) {
	inst, ok := c.Instance(id)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNoInstance, id)
	}
	defs, err := c.WSDLFor(id)
	if err != nil {
		return "", err
	}
	key, err := reg.Publish(registry.Entry{
		Business: c.cfg.Name,
		Name:     inst.spec.Name,
		TModels:  registry.TModelsFor(defs),
		WSDL:     defs.String(),
	})
	if err != nil {
		return "", err
	}
	inst.mu.Lock()
	inst.Exposure = Public
	inst.published[reg] = key
	inst.mu.Unlock()
	c.notify("expose", id, inst.Class)
	return key, nil
}

// LeasedRegistry is a lookup service that also supports leased
// publication — satisfied by both the in-process *registry.Registry and
// the SOAP *registry.Remote, so leased exposure works wherever the
// registry runs.
type LeasedRegistry interface {
	registry.Lookup
	registry.LeaseHolder
}

// ExposeLeased publishes an instance's WSDL into reg under a lease and
// keeps the registration alive with a LeaseKeeper until Unexpose or
// Undeploy, which stop the renewal loop and remove the entry — releasing
// the lease instead of letting it dangle until expiry. The registration
// key is derived from the container and instance identity, so a restarted
// host re-publishing the same instance replaces its dangling predecessor
// rather than duplicating it.
func (c *Container) ExposeLeased(id string, reg LeasedRegistry, lease, interval time.Duration) (string, error) {
	inst, ok := c.Instance(id)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNoInstance, id)
	}
	defs, err := c.WSDLFor(id)
	if err != nil {
		return "", err
	}
	keeper, err := registry.KeepLease(reg, registry.Entry{
		Key:      c.cfg.Name + "::" + inst.ID,
		Business: c.cfg.Name,
		Name:     inst.spec.Name,
		TModels:  registry.TModelsFor(defs),
		WSDL:     defs.String(),
	}, lease, interval)
	if err != nil {
		return "", err
	}
	key := keeper.Key()
	inst.mu.Lock()
	inst.Exposure = Public
	inst.published[reg] = key
	inst.keepers[reg] = keeper
	inst.mu.Unlock()
	c.notify("expose", id, inst.Class)
	return key, nil
}

// Unexpose withdraws an instance from reg; when no registrations remain
// the instance reverts to Private. A leased exposure's renewal loop is
// stopped and its lease released.
func (c *Container) Unexpose(id string, reg registry.Lookup) error {
	inst, ok := c.Instance(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoInstance, id)
	}
	inst.mu.Lock()
	key, published := inst.published[reg]
	delete(inst.published, reg)
	keeper := inst.keepers[reg]
	delete(inst.keepers, reg)
	if len(inst.published) == 0 {
		inst.Exposure = Private
	}
	inst.mu.Unlock()
	if !published {
		return fmt.Errorf("%w: %q not published in that registry", ErrNotExposed, id)
	}
	if keeper != nil {
		keeper.Stop()
		key = keeper.Key()
	}
	c.notify("unexpose", id, inst.Class)
	return reg.Remove(key)
}

// UnexposeEverywhere withdraws an instance from every registry it is
// published in — the graceful-shutdown path: a terminating host calls it
// for each public instance so registrations disappear immediately instead
// of dangling until their leases expire. It reports the number of
// registrations released; removal errors (e.g. an unreachable registry)
// are joined, and the instance is left Private regardless.
func (c *Container) UnexposeEverywhere(id string) (int, error) {
	inst, ok := c.Instance(id)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoInstance, id)
	}
	inst.mu.Lock()
	pubs := inst.published
	inst.published = map[registry.Lookup]string{}
	keepers := inst.keepers
	inst.keepers = map[registry.Lookup]*registry.LeaseKeeper{}
	inst.Exposure = Private
	inst.mu.Unlock()
	for reg, k := range keepers {
		k.Stop()
		pubs[reg] = k.Key()
	}
	var errs []error
	for reg, key := range pubs {
		if err := reg.Remove(key); err != nil {
			errs = append(errs, err)
		}
	}
	if len(pubs) > 0 {
		c.notify("unexpose", id, inst.Class)
	}
	return len(pubs), errors.Join(errs...)
}

// AbandonRegistrations stops every lease-renewal loop WITHOUT removing
// the registrations — the crash model: a dead process stops renewing, so
// its entries dangle until the lease expires or a restarted instance
// republishes over them. It reports the number of keepers stopped.
func (c *Container) AbandonRegistrations() int {
	n := 0
	for _, inst := range c.Instances() {
		inst.mu.Lock()
		keepers := inst.keepers
		inst.keepers = map[registry.Lookup]*registry.LeaseKeeper{}
		inst.mu.Unlock()
		for _, k := range keepers {
			k.Stop()
			n++
		}
	}
	return n
}
