package cluster

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"harness2/internal/registry"
	"harness2/internal/soap"
	"harness2/internal/telemetry"
)

// Peer-op SOAP actions. The "c." prefix keeps them out of the public
// registry action namespace; a node serves both sets on one endpoint.
const (
	opPublish       = "c.publish"
	opReplicate     = "c.replicate"
	opGet           = "c.get"
	opFindName      = "c.findName"
	opFindQuery     = "c.findQuery"
	opRenew         = "c.renew"
	opRemove        = "c.remove"
	opRemoveReplica = "c.removeReplica"
	opGossip        = "c.gossip"
	opMembers       = "c.members"
)

// Exported peer-op names for callers outside the package: the
// cmd/hregistry join bootstrap asks any live peer for OpMembers, and the
// E17 bench probes an owner shard directly with OpFindName.
const (
	OpMembers  = opMembers
	OpFindName = opFindName
)

// Config describes one cluster node.
type Config struct {
	// ID is the node's logical identity: what the ring hashes and the
	// membership tracks. Addr is where its transport listens; keeping
	// the two distinct lets tests pick IDs that steer ring placement.
	ID   string
	Addr string
	// Seed is the initial membership (self is added automatically).
	Seed []PeerState
	// Replicas is the total copy count per entry (owner + successors);
	// values < 1 mean 1 (no replication). R=2 survives one peer death.
	Replicas int
	// VNodes is the per-peer vnode count (0 = DefaultVNodes).
	VNodes int
	// DeadAfter ages a suspicion into death and ring eviction.
	// Zero defaults to 5s.
	DeadAfter time.Duration
	// Clock is the time source (nil = time.Now); churn tests inject a
	// stepped clock shared with the store.
	Clock func() time.Time
	// Caller carries peer RPCs (required for multi-node operation).
	Caller PeerCaller
	// Store is the local shard store; nil builds one on Clock.
	Store *registry.Registry
	// Telemetry receives the ring/replication gauges and counters.
	Telemetry *telemetry.Registry
}

// Node is one peer of the registry cluster: a local shard store plus the
// routing, replication, membership, and rebalance machinery that makes N
// of them behave as one logical registry. It implements registry.Lookup,
// registry.LeaseHolder, and registry.CheckedLookup, so every existing
// client (Cache, Binder, LeaseKeeper) composes with a cluster node
// exactly as with a single registry.
type Node struct {
	cfg     Config
	store   *registry.Registry
	members *Membership
	caller  PeerCaller

	// ring is read lock-free by every operation; rebalMu serializes its
	// replacement so the ring in force is always the newest one built.
	ring    atomic.Pointer[Ring]
	rebalMu sync.Mutex
	seq     atomic.Uint64

	// stats are plain atomic counters mirroring the telemetry counters,
	// readable even when telemetry is disabled (bench harness, tests).
	stMoved, stHandoffFail, stReplFail, stForwarded atomic.Uint64

	// metrics
	gAlive, gSuspect, gDead *telemetry.Gauge
	gRingPeers              *telemetry.Gauge
	gLocalEntries           *telemetry.Gauge
	cMoved                  *telemetry.Counter
	cHandoffFail            *telemetry.Counter
	cReplFail               *telemetry.Counter
	cForwarded              *telemetry.Counter
	cGossipRounds           *telemetry.Counter
}

// NewNode builds a cluster node from cfg. The node is ready to serve
// immediately; call Step periodically (or from a Ticker) to drive gossip.
func NewNode(cfg Config) *Node {
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes // c.members reports the count in force
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	st := cfg.Store
	if st == nil {
		st = registry.NewWithClock(cfg.Clock)
	}
	seed := append([]PeerState(nil), cfg.Seed...)
	seed = append(seed, PeerState{ID: cfg.ID, Addr: cfg.Addr})
	n := &Node{
		cfg:     cfg,
		store:   st,
		members: NewMembership(cfg.ID, seed, cfg.DeadAfter, cfg.Clock),
		caller:  cfg.Caller,
	}
	n.ring.Store(BuildRing(idsOf(n.members.Members()), cfg.VNodes))
	tel := telemetry.Or(cfg.Telemetry)
	tel.Help("cluster_members", "Cluster membership per liveness state.")
	tel.Help("cluster_ring_peers", "Peers currently in the consistent-hash ring.")
	tel.Help("cluster_entries_local", "Entries stored in the local shard, expired leases awaiting the sweep (at most 250ms behind) included.")
	tel.Help("cluster_rebalance_moved_total", "Entries pushed to other peers by rebalance.")
	tel.Help("cluster_handoff_failures_total", "Rebalance pushes that failed (entry retained locally).")
	tel.Help("cluster_replication_failures_total", "Replica writes and removals that failed during publish/renew/remove.")
	tel.Help("cluster_forwarded_total", "Client operations forwarded to the owning peer.")
	tel.Help("cluster_gossip_rounds_total", "Gossip exchanges initiated by this node.")
	id := cfg.ID
	n.gAlive = tel.Gauge("cluster_members", "node", id, "state", "alive")
	n.gSuspect = tel.Gauge("cluster_members", "node", id, "state", "suspect")
	n.gDead = tel.Gauge("cluster_members", "node", id, "state", "dead")
	n.gRingPeers = tel.Gauge("cluster_ring_peers", "node", id)
	n.gLocalEntries = tel.Gauge("cluster_entries_local", "node", id)
	n.cMoved = tel.Counter("cluster_rebalance_moved_total", "node", id)
	n.cHandoffFail = tel.Counter("cluster_handoff_failures_total", "node", id)
	n.cReplFail = tel.Counter("cluster_replication_failures_total", "node", id)
	n.cForwarded = tel.Counter("cluster_forwarded_total", "node", id)
	n.cGossipRounds = tel.Counter("cluster_gossip_rounds_total", "node", id)
	n.updateGauges()
	return n
}

var (
	_ registry.Lookup        = (*Node)(nil)
	_ registry.LeaseHolder   = (*Node)(nil)
	_ registry.CheckedLookup = (*Node)(nil)
	_ registry.Backend       = (*Node)(nil)
)

func idsOf(ps []PeerState) []string {
	ids := make([]string, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	return ids
}

// ID returns the node's logical identity.
func (n *Node) ID() string { return n.cfg.ID }

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.cfg.Addr }

// Store exposes the local shard store (tests and metrics).
func (n *Node) Store() *registry.Registry { return n.store }

// Membership exposes the peer table (tests and the members peer op).
func (n *Node) Membership() *Membership { return n.members }

// Ring returns the node's current ring snapshot.
func (n *Node) Ring() *Ring { return n.ring.Load() }

func (n *Node) updateGauges() {
	a, s, d := n.members.Counts()
	n.gAlive.Set(int64(a))
	n.gSuspect.Set(int64(s))
	n.gDead.Set(int64(d))
	n.gRingPeers.Set(int64(n.Ring().Len()))
	n.countEntries()
}

// countEntries settles the local-entries gauge from the store's O(1)
// counter, so write paths can afford it on every operation.
func (n *Node) countEntries() { n.gLocalEntries.Set(int64(n.store.Stored())) }

// owners resolves the owner peer-states for a ring key, primary first,
// using the node's current ring and membership. Peers the membership has
// lost track of are skipped. Operations resolve the list once and pass it
// down, so one operation sees one ring.
func (n *Node) owners(ringKey string) []PeerState {
	ids := n.Ring().Owners(ringKey, n.cfg.Replicas)
	out := make([]PeerState, 0, len(ids))
	for _, id := range ids {
		if p, ok := n.members.Get(id); ok {
			out = append(out, p)
		}
	}
	return out
}

// OwnerAddr returns the transport address of keyOrName's primary owner.
func (n *Node) OwnerAddr(keyOrName string) (string, bool) {
	os := n.owners(RingKey(keyOrName))
	if len(os) == 0 {
		return "", false
	}
	return os[0].Addr, true
}

// IsLocalOwner reports whether this node is among keyOrName's owners.
func (n *Node) IsLocalOwner(keyOrName string) bool {
	for _, p := range n.owners(RingKey(keyOrName)) {
		if p.ID == n.cfg.ID {
			return true
		}
	}
	return false
}

// leads reports whether this node is the primary of an owner list.
func (n *Node) leads(owners []PeerState) bool {
	return len(owners) > 0 && owners[0].ID == n.cfg.ID
}

// clusterKey canonicalises an entry key so it routes with its name: a
// cluster-assigned key is "name::<node>-<seq>", and a caller-chosen key
// that does not already carry the entry's name as its ring prefix is
// rewritten to "name::key". Rewriting is deterministic, so keyed
// re-publication stays idempotent.
func (n *Node) clusterKey(e registry.Entry) string {
	if e.Key == "" {
		return fmt.Sprintf("%s::%s-%d", e.Name, n.cfg.ID, n.seq.Add(1))
	}
	if RingKey(e.Key) == e.Name {
		return e.Key
	}
	return e.Name + "::" + e.Key
}

// ---- client surface -------------------------------------------------

// Publish implements registry.Lookup.
func (n *Node) Publish(e registry.Entry) (string, error) {
	return n.PublishLeased(e, 0)
}

// PublishLeased implements registry.LeaseHolder: the entry is stored on
// its name's primary owner and replicated (with its lease) to the ring
// successors. Called on a non-owner, the operation is forwarded.
func (n *Node) PublishLeased(e registry.Entry, lease time.Duration) (string, error) {
	if e.Name == "" {
		return "", fmt.Errorf("registry: entry must be named")
	}
	e.Key = n.clusterKey(e)
	owners := n.owners(e.Name)
	if n.leads(owners) {
		return n.publishLocal(e, lease, owners)
	}
	return n.forwardPublish(e, lease, owners)
}

// publishLocal stores the entry on this (owning) node and replicates it,
// lease included, to the other owners. The owner write is authoritative:
// replica failures are counted but do not fail the publish — the next
// renewal or rebalance repairs them.
func (n *Node) publishLocal(e registry.Entry, lease time.Duration, owners []PeerState) (string, error) {
	key, err := n.store.PublishLeased(e, lease)
	if err != nil {
		return "", err
	}
	e.Key = key
	n.replicate(owners, e, lease)
	n.countEntries()
	return key, nil
}

// replicate pushes one entry to every non-self owner.
func (n *Node) replicate(owners []PeerState, e registry.Entry, lease time.Duration) {
	for _, p := range owners {
		if p.ID == n.cfg.ID {
			continue
		}
		if err := n.replicateTo(p.Addr, e, lease); err != nil {
			n.replicaFailed()
		}
	}
}

func (n *Node) replicaFailed() {
	n.cReplFail.Inc()
	n.stReplFail.Add(1)
}

func (n *Node) replicateTo(addr string, e registry.Entry, lease time.Duration) error {
	e.LeaseRemaining = lease
	_, err := n.call(addr, opReplicate, registry.MarshalEntry(e))
	return err
}

func (n *Node) forwardPublish(e registry.Entry, lease time.Duration, owners []PeerState) (string, error) {
	if len(owners) == 0 {
		return "", fmt.Errorf("%w: no owner for %q", registry.ErrUnavailable, e.Name)
	}
	addr := owners[0].Addr
	n.cForwarded.Inc()
	n.stForwarded.Add(1)
	e.LeaseRemaining = lease
	out, err := n.call(addr, opPublish, registry.MarshalEntry(e))
	if err != nil {
		return "", fmt.Errorf("%w: publish via %s: %v", registry.ErrUnavailable, addr, err)
	}
	if v, ok := outParam(out, "key"); ok {
		if k, ok := v.(string); ok {
			return k, nil
		}
	}
	return "", fmt.Errorf("registry: malformed publish response")
}

// Renew implements registry.LeaseHolder, routing the renewal to the
// entry's current primary owner (which may have changed since the entry
// was published). On the owner it renews locally and refreshes replicas.
func (n *Node) Renew(key string) error {
	owners := n.owners(RingKey(key))
	if n.leads(owners) {
		return n.renewLocal(key, owners)
	}
	return n.forwardKeyed(opRenew, key, owners)
}

// forwardKeyed sends a keyed write to the key's primary owner.
func (n *Node) forwardKeyed(op, key string, owners []PeerState) error {
	if len(owners) == 0 {
		return fmt.Errorf("%w: no owner for %q", registry.ErrUnavailable, key)
	}
	n.cForwarded.Inc()
	n.stForwarded.Add(1)
	_, err := n.call(owners[0].Addr, op, []soap.Param{{Name: "key", Value: key}})
	return err
}

func (n *Node) renewLocal(key string, owners []PeerState) error {
	if err := n.store.Renew(key); err != nil {
		return err
	}
	if e, ok := n.store.Get(key); ok && e.LeaseRemaining > 0 {
		n.replicate(owners, e, e.LeaseRemaining)
	}
	return nil
}

// Remove implements registry.Lookup, deleting the entry from its owner
// and every replica.
func (n *Node) Remove(key string) error {
	owners := n.owners(RingKey(key))
	if n.leads(owners) {
		return n.removeLocal(key, owners)
	}
	return n.forwardKeyed(opRemove, key, owners)
}

// removeLocal deletes the entry here and on the other owners. Like a
// replica write, a replica removal that fails is counted, not fatal: the
// copy it leaves can still answer a replica-served find until its lease
// runs out.
func (n *Node) removeLocal(key string, owners []PeerState) error {
	err := n.store.Remove(key)
	for _, p := range owners {
		if p.ID == n.cfg.ID {
			continue
		}
		if _, rerr := n.call(p.Addr, opRemoveReplica, []soap.Param{{Name: "key", Value: key}}); rerr != nil {
			n.replicaFailed()
		}
	}
	n.countEntries()
	return err
}

// Get implements registry.Lookup.
func (n *Node) Get(key string) (registry.Entry, bool) {
	e, ok, _ := n.GetErr(key)
	return e, ok
}

// GetErr implements registry.CheckedLookup: the read goes to the key's
// owner group — locally when this node is an owner (read-your-writes on
// the primary), otherwise to the owners in ring order, falling through
// to replicas when the primary is unreachable. Only when every owner is
// unreachable does it report ErrUnavailable; an owner's miss is
// authoritative.
func (n *Node) GetErr(key string) (registry.Entry, bool, error) {
	rk := RingKey(key)
	owners := n.owners(rk)
	for _, p := range owners {
		if p.ID == n.cfg.ID {
			e, ok := n.store.Get(key)
			return e, ok, nil
		}
	}
	var lastErr error
	for _, p := range owners {
		out, err := n.call(p.Addr, opGet, []soap.Param{{Name: "key", Value: key}})
		if err == nil {
			e, err := entryFromParams(out)
			if err != nil {
				return registry.Entry{}, false, err
			}
			return e, true, nil
		}
		if isNoEntryFault(err) {
			return registry.Entry{}, false, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no owners")
	}
	return registry.Entry{}, false, fmt.Errorf("%w: get %s: %v", registry.ErrUnavailable, key, lastErr)
}

// FindByName implements registry.Lookup.
func (n *Node) FindByName(name string) []registry.Entry {
	es, _ := n.FindByNameErr(name)
	return es
}

// FindByNameErr implements registry.CheckedLookup. A name maps to one
// shard group, so the find goes to that group only — local when this
// node is an owner, otherwise owner-then-replicas until one answers.
func (n *Node) FindByNameErr(name string) ([]registry.Entry, error) {
	owners := n.owners(name)
	for _, p := range owners {
		if p.ID == n.cfg.ID {
			return n.store.FindByName(name), nil
		}
	}
	var lastErr error
	for _, p := range owners {
		out, err := n.call(p.Addr, opFindName, []soap.Param{{Name: "arg", Value: name}})
		if err == nil {
			return registry.UnmarshalEntries(out)
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no owners")
	}
	return nil, fmt.Errorf("%w: findByName %s: %v", registry.ErrUnavailable, name, lastErr)
}

// FindByQuery implements registry.Lookup: the query cannot be mapped to
// a shard, so it scatters to every live peer's local store and merges,
// deduplicating replicated entries by key. Peer failures are tolerated
// as long as fewer than Replicas peers fail (their entries are covered
// by surviving replicas); at Replicas or more, coverage is no longer
// guaranteed and the scatter reports ErrUnavailable.
func (n *Node) FindByQuery(query string) ([]registry.Entry, error) {
	merged := make(map[string]registry.Entry)
	failed := 0
	var lastErr error
	for _, p := range n.members.Members() {
		var es []registry.Entry
		if p.ID == n.cfg.ID {
			local, err := n.store.FindByQuery(query)
			if err != nil {
				return nil, err // malformed query: authoritative
			}
			es = local
		} else {
			out, err := n.call(p.Addr, opFindQuery, []soap.Param{{Name: "arg", Value: query}})
			if err != nil {
				if f := (*soap.Fault)(nil); asFault(err, &f) && f.Code == "Client" {
					return nil, f // malformed query: authoritative
				}
				failed++
				lastErr = err
				continue
			}
			var perr error
			if es, perr = registry.UnmarshalEntries(out); perr != nil {
				failed++
				lastErr = perr
				continue
			}
		}
		for _, e := range es {
			if old, ok := merged[e.Key]; !ok || e.LeaseRemaining > old.LeaseRemaining {
				merged[e.Key] = e
			}
		}
	}
	if failed >= n.cfg.Replicas {
		return nil, fmt.Errorf("%w: findByQuery: %d peers unreachable: %v",
			registry.ErrUnavailable, failed, lastErr)
	}
	out := make([]registry.Entry, 0, len(merged))
	for _, e := range merged {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// call sends one peer RPC.
func (n *Node) call(addr, method string, params []soap.Param) ([]soap.Param, error) {
	if n.caller == nil {
		return nil, fmt.Errorf("cluster: node %s has no peer transport", n.cfg.ID)
	}
	return n.caller.Call(context.Background(), addr, method, params)
}

// ---- gossip + rebalance ---------------------------------------------

// Step runs one gossip round: probe the next round-robin peer with a
// push-pull digest exchange, fold the answer in, age suspicions, and
// rebalance if ring membership changed. Callers drive it from a ticker
// (cmd/hregistry) or manually (tests, simnet benches).
func (n *Node) Step(ctx context.Context) {
	n.cGossipRounds.Inc()
	changed := false
	if target, ok := n.members.NextTarget(); ok {
		digest := base64.StdEncoding.EncodeToString(EncodeDigest(n.members.Digest()))
		out, err := n.caller.Call(ctx, target.Addr, opGossip,
			[]soap.Param{{Name: "digest", Value: digest}})
		if err != nil {
			changed = n.members.MarkFailed(target.ID) || changed
		} else {
			changed = n.members.MarkAlive(target.ID) || changed
			if v, ok := outParam(out, "digest"); ok {
				if s, ok := v.(string); ok {
					if raw, err := base64.StdEncoding.DecodeString(s); err == nil {
						if ps, err := DecodeDigest(raw); err == nil {
							changed = n.members.Merge(ps) || changed
						}
					}
				}
			}
		}
	}
	changed = n.members.Tick() || changed
	if changed {
		n.Rebalance()
	}
	n.updateGauges()
}

// Rebalance recomputes the ring from current membership and hands off
// local entries whose owner set changed: an entry this node no longer
// owns is pushed to its new primary and dropped only once the push
// succeeds (no-loss); an entry this node still owns is pushed to each
// newly-added owner (idempotent keyed replication makes duplicate pushes
// from several owners harmless). Returns the number of entries pushed.
func (n *Node) Rebalance() int {
	n.rebalMu.Lock()
	next := BuildRing(idsOf(n.members.Members()), n.cfg.VNodes)
	old := n.ring.Swap(next)
	n.rebalMu.Unlock()
	moved := 0
	for _, e := range n.store.List() {
		rk := RingKey(e.Key)
		pl := PlanMove(old, next, rk, n.cfg.Replicas)
		if next.IsOwner(rk, n.cfg.ID, n.cfg.Replicas) {
			for _, id := range pl.Adds {
				if id == n.cfg.ID {
					continue
				}
				if p, ok := n.members.Get(id); ok {
					if err := n.replicateTo(p.Addr, e, e.LeaseRemaining); err != nil {
						n.cHandoffFail.Inc()
						n.stHandoffFail.Add(1)
					} else {
						moved++
					}
				}
			}
			continue
		}
		// No longer an owner: push to the new primary, drop on success.
		pushed := false
		for _, p := range n.owners(rk) {
			if p.ID == n.cfg.ID {
				continue
			}
			if err := n.replicateTo(p.Addr, e, e.LeaseRemaining); err == nil {
				pushed = true
				break
			}
			n.cHandoffFail.Inc()
			n.stHandoffFail.Add(1)
		}
		if pushed {
			n.store.Remove(e.Key)
			moved++
		}
	}
	if moved > 0 {
		n.cMoved.Add(uint64(moved))
		n.stMoved.Add(uint64(moved))
	}
	n.countEntries()
	return moved
}

// NodeStats is a snapshot of a node's cumulative churn counters.
type NodeStats struct {
	Moved               uint64 // entries pushed to other peers by rebalance
	HandoffFailures     uint64 // rebalance pushes that failed
	ReplicationFailures uint64 // replica writes that failed
	Forwarded           uint64 // client ops forwarded to the owner
}

// Stats returns the node's churn counters; unlike the telemetry gauges
// these are always live, so benches and tests can read them with
// instrumentation off.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Moved:               n.stMoved.Load(),
		HandoffFailures:     n.stHandoffFail.Load(),
		ReplicationFailures: n.stReplFail.Load(),
		Forwarded:           n.stForwarded.Load(),
	}
}

// ---- peer-op server side --------------------------------------------

// HandlePeer dispatches one incoming peer RPC; it is the PeerHandler a
// transport registers for this node, and the function the SOAP glue
// wraps for HTTP deployments. Errors it returns are *soap.Fault values,
// so both transports surface identical semantics.
func (n *Node) HandlePeer(ctx context.Context, method string, params []soap.Param) ([]soap.Param, error) {
	switch method {
	case opPublish:
		e, lease, err := entryWithLease(params)
		if err != nil {
			return nil, clientFault(err)
		}
		key, err := n.publishLocal(e, lease, n.owners(e.Name))
		if err != nil {
			return nil, clientFault(err)
		}
		return []soap.Param{{Name: "key", Value: key}}, nil
	case opReplicate:
		e, lease, err := entryWithLease(params)
		if err != nil {
			return nil, clientFault(err)
		}
		if _, err := n.store.PublishLeased(e, lease); err != nil {
			return nil, clientFault(err)
		}
		n.countEntries()
		return []soap.Param{{Name: "ok", Value: true}}, nil
	case opGet:
		key, err := stringArg(params, "key")
		if err != nil {
			return nil, err
		}
		e, ok := n.store.Get(key)
		if !ok {
			return nil, &soap.Fault{Code: "Client", String: fmt.Sprintf("no entry %q", key)}
		}
		return registry.MarshalEntry(e), nil
	case opFindName:
		name, err := stringArg(params, "arg")
		if err != nil {
			return nil, err
		}
		return registry.MarshalEntries(n.store.FindByName(name)), nil
	case opFindQuery:
		q, err := stringArg(params, "arg")
		if err != nil {
			return nil, err
		}
		es, err := n.store.FindByQuery(q)
		if err != nil {
			return nil, clientFault(err)
		}
		return registry.MarshalEntries(es), nil
	case opRenew:
		key, err := stringArg(params, "key")
		if err != nil {
			return nil, err
		}
		owners := n.owners(RingKey(key))
		if !n.leads(owners) && len(owners) > 0 && owners[0].Addr != n.cfg.Addr {
			// Routed here by a stale ring: redirect to the owner we know.
			return nil, &soap.Fault{
				Code:   registry.FaultCodeRedirect,
				String: fmt.Sprintf("renew %q: owner is %s", key, owners[0].Addr),
				Detail: owners[0].Addr,
			}
		}
		if err := n.renewLocal(key, owners); err != nil {
			return nil, clientFault(err)
		}
		return []soap.Param{{Name: "ok", Value: true}}, nil
	case opRemove:
		key, err := stringArg(params, "key")
		if err != nil {
			return nil, err
		}
		if err := n.removeLocal(key, n.owners(RingKey(key))); err != nil {
			return nil, clientFault(err)
		}
		return []soap.Param{{Name: "ok", Value: true}}, nil
	case opRemoveReplica:
		key, err := stringArg(params, "key")
		if err != nil {
			return nil, err
		}
		n.store.Remove(key)
		n.countEntries()
		return []soap.Param{{Name: "ok", Value: true}}, nil
	case opGossip:
		s, err := stringArg(params, "digest")
		if err != nil {
			return nil, err
		}
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return nil, clientFault(fmt.Errorf("cluster: bad digest encoding: %w", err))
		}
		ps, err := DecodeDigest(raw)
		if err != nil {
			return nil, clientFault(err)
		}
		if n.members.Merge(ps) {
			n.Rebalance()
			n.updateGauges()
		}
		reply := base64.StdEncoding.EncodeToString(EncodeDigest(n.members.Digest()))
		return []soap.Param{{Name: "digest", Value: reply}}, nil
	case opMembers:
		ms := n.members.Members()
		ids := make([]string, len(ms))
		addrs := make([]string, len(ms))
		for i, p := range ms {
			ids[i] = p.ID
			addrs[i] = p.Addr
		}
		// ring and vnodes let a client build the ring this node routes by
		// (the Router's one-hop placement); ids/addrs are the membership.
		return []soap.Param{
			{Name: "ids", Value: ids},
			{Name: "addrs", Value: addrs},
			{Name: "ring", Value: n.Ring().Peers()},
			{Name: "vnodes", Value: int64(n.cfg.VNodes)},
		}, nil
	}
	return nil, &soap.Fault{Code: "Client", String: fmt.Sprintf("unknown peer op %q", method)}
}

// ---- wire helpers ---------------------------------------------------

func clientFault(err error) error {
	if f, ok := err.(*soap.Fault); ok {
		return f
	}
	return &soap.Fault{Code: "Client", String: err.Error()}
}

func stringArg(params []soap.Param, name string) (string, error) {
	if v, ok := paramsValue(params, name); ok {
		if s, ok := v.(string); ok {
			return s, nil
		}
	}
	return "", &soap.Fault{Code: "Client", String: fmt.Sprintf("missing parameter %q", name)}
}

func paramsValue(params []soap.Param, name string) (any, bool) {
	for _, p := range params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return nil, false
}

// outParam mirrors registry's response-parameter lookup.
func outParam(params []soap.Param, name string) (any, bool) {
	return paramsValue(params, name)
}

// entryWithLease decodes an entry RPC: the entry row plus its remaining
// lease (carried in LeaseRemaining by MarshalEntry).
func entryWithLease(params []soap.Param) (registry.Entry, time.Duration, error) {
	e, err := registry.UnmarshalEntry(&soap.Call{Params: params})
	if err != nil {
		return registry.Entry{}, 0, err
	}
	lease := e.LeaseRemaining
	e.LeaseRemaining = 0
	return e, lease, nil
}

// entryFromParams decodes a get response.
func entryFromParams(out []soap.Param) (registry.Entry, error) {
	e, lease, err := entryWithLease(out)
	e.LeaseRemaining = lease
	return e, err
}

func isNoEntryFault(err error) bool {
	var f *soap.Fault
	if !asFault(err, &f) {
		return false
	}
	return f.Code == "Client"
}

func asFault(err error, f **soap.Fault) bool { return errors.As(err, f) }
