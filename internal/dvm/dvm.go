package dvm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"harness2/internal/container"
	"harness2/internal/invoke"
	"harness2/internal/resilience"
	"harness2/internal/simnet"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
)

// DVM is a Distributed Virtual Machine: a named aggregate of component
// containers with a unified name space. The functional behaviour (deploy,
// lookup, invoke) is real — containers host live components — while
// global-state maintenance is delegated to the chosen Coherency strategy,
// whose traffic is charged to the strategy's simnet fabric.
type DVM struct {
	name string
	coh  Coherency
	tel  *telemetry.Registry
	fab  *simnet.Network // the strategy's fabric, when it exposes one

	// met is the coherency instrument set (telemetry S27): per-op message
	// and byte counts sampled as fabric Stats() deltas, per-op modelled
	// latency, the membership gauge, and the eviction counter. Every
	// handle is nil-safe.
	met struct {
		ops       *telemetry.CounterVec
		msgs      *telemetry.CounterVec
		bytes     *telemetry.CounterVec
		virtNs    *telemetry.HistogramVec
		members   *telemetry.Gauge
		evictions *telemetry.Counter
	}
	lastStats simnet.Stats // guarded by mu; last sampled fabric counters

	mu      sync.RWMutex
	members map[string]*container.Container
	// virtual accumulates the modelled coherency latency of every
	// operation performed through this DVM.
	virtual time.Duration
}

// New creates a DVM with the given symbolic name (unique in the Harness
// name space, per the paper) and coherency strategy.
func New(name string, coh Coherency) *DVM {
	d := &DVM{name: name, coh: coh, members: make(map[string]*container.Container)}
	if f, ok := coh.(fabric); ok {
		d.fab = f.Fabric()
	}
	d.initMetrics()
	return d
}

// SetTelemetry selects the DVM's metrics registry; call it before any
// traffic flows. Nil falls back to the process default,
// telemetry.Disabled() switches instrumentation off.
func (d *DVM) SetTelemetry(r *telemetry.Registry) {
	d.tel = r
	d.initMetrics()
}

// resilient is implemented by coherency strategies whose distribution
// sends can be governed by a resilience policy (the three shipped
// strategies all qualify via cohNet).
type resilient interface {
	SetResilience(*resilience.Policy)
}

// SetResilience attaches a retry policy to the coherency strategy's
// distribution sends: dropped fabric messages are re-sent with backoff
// instead of failing the whole broadcast, and the retries surface in the
// policy's own telemetry. Call before traffic flows; nil detaches. The
// call is a no-op for strategies that do not expose the hook.
func (d *DVM) SetResilience(p *resilience.Policy) {
	if r, ok := d.coh.(resilient); ok {
		r.SetResilience(p)
	}
}

func (d *DVM) initMetrics() {
	tel := telemetry.Or(d.tel)
	tel.Help("harness_dvm_coherency_ops_total", "coherency operations by dvm, strategy and op")
	tel.Help("harness_dvm_coherency_messages_total", "fabric messages attributed to coherency ops")
	tel.Help("harness_dvm_coherency_bytes_total", "fabric bytes attributed to coherency ops")
	tel.Help("harness_dvm_coherency_latency_ns", "modelled coherency latency by op")
	tel.Help("harness_dvm_members", "enrolled member nodes by dvm")
	tel.Help("harness_dvm_evictions_total", "members evicted by failure detection")
	strategy := d.coh.Name()
	fixed := []string{"dvm", d.name, "strategy", strategy}
	d.met.ops = tel.CounterVec("harness_dvm_coherency_ops_total", "op", fixed...)
	d.met.msgs = tel.CounterVec("harness_dvm_coherency_messages_total", "op", fixed...)
	d.met.bytes = tel.CounterVec("harness_dvm_coherency_bytes_total", "op", fixed...)
	d.met.virtNs = tel.HistogramVec("harness_dvm_coherency_latency_ns", "op", fixed...)
	d.met.members = tel.Gauge("harness_dvm_members", fixed...)
	d.met.evictions = tel.Counter("harness_dvm_evictions_total", fixed...)
}

// Name returns the DVM's symbolic name.
func (d *DVM) Name() string { return d.name }

// Coherency returns the active DVM-enabling strategy.
func (d *DVM) Coherency() Coherency { return d.coh }

// VirtualTime returns the accumulated modelled coherency latency.
func (d *DVM) VirtualTime() time.Duration {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.virtual
}

// chargeOp accrues the modelled coherency latency of one operation and
// attributes the fabric traffic it generated (sampled as a Stats() delta
// since the previous operation) to the op's metric series. Sampling
// deltas at the DVM keeps the three coherency strategies free of
// instrumentation code. Negative deltas — a concurrent ResetStats — are
// clamped to zero.
func (d *DVM) chargeOp(op string, t time.Duration) {
	var dm int
	var db int64
	d.mu.Lock()
	d.virtual += t
	if d.fab != nil {
		st := d.fab.Stats()
		dm = st.Messages - d.lastStats.Messages
		db = st.Bytes - d.lastStats.Bytes
		d.lastStats = st
		if dm < 0 {
			dm = 0
		}
		if db < 0 {
			db = 0
		}
	}
	d.mu.Unlock()
	d.met.ops.With(op).Inc()
	d.met.msgs.With(op).Add(uint64(dm))
	d.met.bytes.With(op).Add(uint64(db))
	d.met.virtNs.With(op).ObserveDuration(t)
}

// memberCount refreshes the membership gauge.
func (d *DVM) memberCount() {
	d.mu.RLock()
	n := len(d.members)
	d.mu.RUnlock()
	d.met.members.Set(int64(n))
}

// AddNode enrolls a container as a DVM member.
func (d *DVM) AddNode(c *container.Container) error {
	name := c.Name()
	d.mu.Lock()
	if _, ok := d.members[name]; ok {
		d.mu.Unlock()
		return fmt.Errorf("dvm: node %q already enrolled", name)
	}
	d.members[name] = c
	d.mu.Unlock()
	t, err := d.coh.AddNode(name)
	d.chargeOp("node-add", t)
	if err != nil {
		d.mu.Lock()
		delete(d.members, name)
		d.mu.Unlock()
	}
	d.memberCount()
	return err
}

// RemoveNode withdraws a node; its services leave the unified name space.
func (d *DVM) RemoveNode(name string) error {
	d.mu.Lock()
	_, ok := d.members[name]
	delete(d.members, name)
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMember, name)
	}
	t, err := d.coh.RemoveNode(name)
	d.chargeOp("node-remove", t)
	d.memberCount()
	return err
}

// Node returns a member container.
func (d *DVM) Node(name string) (*container.Container, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c, ok := d.members[name]
	return c, ok
}

// Nodes lists member node names.
func (d *DVM) Nodes() []string { return d.coh.Members() }

// Deploy instantiates class on the named node and records the service in
// the DVM-wide table through the coherency strategy.
func (d *DVM) Deploy(node, class, id string) (*container.Instance, error) {
	c, ok := d.Node(node)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMember, node)
	}
	inst, _, err := c.Deploy(class, id)
	if err != nil {
		return nil, err
	}
	entry := ServiceEntry{
		Node:     node,
		Instance: inst.ID,
		Class:    inst.Class,
		Service:  inst.Spec().Name,
	}
	if defs, werr := c.WSDLFor(inst.ID); werr == nil {
		entry.WSDL = defs.String()
	}
	t, err := d.coh.Apply(node, Event{Kind: ServiceAdd, Node: node, Entry: entry})
	d.chargeOp("service-add", t)
	if err != nil {
		// Roll the deployment back so the table and reality agree.
		_ = c.Undeploy(inst.ID)
		return nil, err
	}
	return inst, nil
}

// Undeploy removes an instance and its table row.
func (d *DVM) Undeploy(node, id string) error {
	c, ok := d.Node(node)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMember, node)
	}
	if err := c.Undeploy(id); err != nil {
		return err
	}
	t, err := d.coh.Apply(node, Event{
		Kind: ServiceRemove, Node: node,
		Entry: ServiceEntry{Node: node, Instance: id},
	})
	d.chargeOp("service-remove", t)
	return err
}

// Lookup answers q from the perspective of node, per the coherency
// strategy's consistency/traffic trade-off.
func (d *DVM) Lookup(node string, q Query) ([]ServiceEntry, error) {
	entries, t, err := d.coh.Query(node, q)
	d.chargeOp("query", t)
	return entries, err
}

// Invoke resolves an instance through the unified name space and invokes
// it: lookup from the caller's node, then direct dispatch to the hosting
// container (the post-discovery direct loop of Figure 4).
func (d *DVM) Invoke(ctx context.Context, fromNode string, q Query, op string, args []wire.Arg) ([]wire.Arg, error) {
	entries, err := d.Lookup(fromNode, q)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("dvm: %s matched no services", q)
	}
	e := entries[0]
	c, ok := d.Node(e.Node)
	if !ok {
		return nil, fmt.Errorf("%w: %q (stale table entry)", ErrUnknownMember, e.Node)
	}
	return c.Invoke(ctx, e.Instance, op, args)
}

// Port opens an invocation port to the first match of q: Dial over the
// host's WSDL with the host co-located, so the port is the host's local
// rung, instrumented like any other.
func (d *DVM) Port(fromNode string, q Query) (invoke.Port, error) {
	entries, err := d.Lookup(fromNode, q)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("dvm: %s matched no services", q)
	}
	e := entries[0]
	host, ok := d.Node(e.Node)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMember, e.Node)
	}
	defs, err := host.WSDLFor(e.Instance)
	if err != nil {
		return nil, err
	}
	return invoke.Dial(defs, invoke.Options{LocalContainers: []*container.Container{host}, Telemetry: d.tel})
}

// Migrate moves a stateful instance between member nodes, updating the
// unified name space: the Section 6 mobility scenario ("upload his
// application component to a container residing on that node"). The
// service-table row moves atomically from the source node's entry to the
// destination's.
func (d *DVM) Migrate(fromNode, id, toNode string) error {
	src, ok := d.Node(fromNode)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMember, fromNode)
	}
	dst, ok := d.Node(toNode)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMember, toNode)
	}
	inst, ok := src.Instance(id)
	if !ok {
		return fmt.Errorf("dvm: no instance %q on %s", id, fromNode)
	}
	class, service := inst.Class, inst.Spec().Name
	if err := container.Migrate(src, id, dst); err != nil {
		return err
	}
	t, err := d.coh.Apply(fromNode, Event{Kind: ServiceRemove, Node: fromNode,
		Entry: ServiceEntry{Node: fromNode, Instance: id}})
	d.chargeOp("migrate", t)
	if err != nil {
		return err
	}
	entry := ServiceEntry{Node: toNode, Instance: id, Class: class, Service: service}
	if defs, werr := dst.WSDLFor(id); werr == nil {
		entry.WSDL = defs.String()
	}
	t, err = d.coh.Apply(toNode, Event{Kind: ServiceAdd, Node: toNode, Entry: entry})
	d.chargeOp("migrate", t)
	return err
}

// NodeStatus summarises one member's load.
type NodeStatus struct {
	Node      string
	Instances int
	Classes   []string
}

// Status reports per-node instance counts — the DVM status-query service.
func (d *DVM) Status() []NodeStatus {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []NodeStatus
	for name, c := range d.members {
		st := NodeStatus{Node: name}
		seen := map[string]bool{}
		for _, in := range c.Instances() {
			st.Instances++
			if !seen[in.Class] {
				seen[in.Class] = true
				st.Classes = append(st.Classes, in.Class)
			}
		}
		sortStrings(st.Classes)
		out = append(out, st)
	}
	sortByNode(out)
	return out
}

func sortByNode(s []NodeStatus) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Node < s[j-1].Node; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
