package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"harness2/internal/registry"
	"harness2/internal/resilience"
	"harness2/internal/resilience/chaos"
	"harness2/internal/soap"
)

// Router is the cluster-aware client: a registry.Lookup / LeaseHolder /
// CheckedLookup over multiple bootstrap endpoints. Any cluster node can
// answer any operation (it forwards or redirects internally), so
// availability needs only the endpoint list: the router fails over to the
// next endpoint on an unavailability error, and can refresh the list from
// the cluster's own membership — so a client bootstrapped with one seed
// address survives that seed's death once it has refreshed. Placement is
// an optimisation on top: the router learns the ring from the same
// membership reply and sends each keyed operation to its primary owner
// first, so a settled cluster serves it in one hop with no forward and no
// renew Redirect. A stale or unknown ring only costs that extra hop.
// registry.Cache and invoke.Binder compose over it unchanged.
type Router struct {
	// Policy and Chaos are handed to each per-endpoint Remote; see
	// registry.Remote.
	Policy *resilience.Policy
	Chaos  *chaos.Injector
	Client soap.Client

	mu        sync.Mutex
	endpoints []string
	last      string // endpoint that answered most recently
	remotes   map[string]*registry.Remote
	// ring and addrOf (ring peer ID -> endpoint) are the learned
	// placement; a nil ring is learned before the next keyed operation.
	ring    *Ring
	addrOf  map[string]string
	ringOps int // keyed operations routed by ring
}

// ringRelearnOps bounds how many keyed operations one learned ring
// routes. Failovers and Redirects already trigger a re-learn; the count
// catches ring changes that show as neither because peers forward.
const ringRelearnOps = 1024

var (
	_ registry.Lookup        = (*Router)(nil)
	_ registry.LeaseHolder   = (*Router)(nil)
	_ registry.CheckedLookup = (*Router)(nil)
)

// NewRouter returns a router bootstrapped with the given endpoints.
func NewRouter(endpoints ...string) *Router {
	return &Router{
		endpoints: append([]string(nil), endpoints...),
		remotes:   make(map[string]*registry.Remote),
	}
}

// Endpoints returns the router's current endpoint list.
func (r *Router) Endpoints() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.endpoints...)
}

// remote returns (building on demand) the Remote for one endpoint;
// callers hold r.mu.
func (r *Router) remote(endpoint string) *registry.Remote {
	rem, ok := r.remotes[endpoint]
	if !ok {
		rem = &registry.Remote{Endpoint: endpoint, Client: r.Client, Policy: r.Policy, Chaos: r.Chaos}
		r.remotes[endpoint] = rem
	}
	return rem
}

// failover reports whether err warrants trying the next endpoint: the
// registry was unreachable, as opposed to answering authoritatively.
func failover(err error) bool {
	if errors.Is(err, registry.ErrUnavailable) {
		return true
	}
	// Renew/Remove/Publish surface transport failures as plain errors;
	// an authoritative answer always arrives as a SOAP fault.
	var f *soap.Fault
	return !errors.As(err, &f)
}

// route returns the failover order for one operation — the endpoint list,
// led by ringKey's primary owner when the ring names one, else by the
// endpoint that answered last — and whether the ring is due a (re-)learn.
// An empty ringKey marks an operation no single shard owns.
func (r *Router) route(ringKey string) (order []*registry.Remote, stale bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.last
	if ringKey != "" {
		r.ringOps++
		stale = r.ring == nil || r.ringOps > ringRelearnOps
		if addr := r.addrOf[r.ring.Owner(ringKey)]; addr != "" {
			first = addr
		}
	}
	order = make([]*registry.Remote, 0, len(r.endpoints)+1)
	if first != "" {
		order = append(order, r.remote(first))
	}
	for _, ep := range r.endpoints {
		if ep != first {
			order = append(order, r.remote(ep))
		}
	}
	return order, stale
}

// do runs fn against each endpoint in route order, failing over on
// unavailability. Authoritative errors (SOAP faults) return immediately.
// An answer that took a failover or a followed Redirect to reach means
// the learned ring no longer matches the cluster, so it is dropped.
func (r *Router) do(ringKey string, fn func(rem *registry.Remote) error) error {
	order, stale := r.route(ringKey)
	if stale {
		r.learn(false)
		order, _ = r.route(ringKey)
	}
	var lastErr error
	for i, rem := range order {
		redirects := rem.Redirects()
		err := fn(rem)
		if err == nil || !failover(err) {
			r.mu.Lock()
			r.last = rem.Endpoint
			if i > 0 || rem.Redirects() != redirects {
				r.ring = nil
			}
			r.mu.Unlock()
			return err
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: router has no endpoints", registry.ErrUnavailable)
	}
	return lastErr
}

// Refresh asks the cluster for its current membership and replaces the
// endpoint list with the live peers' addresses. Call it periodically (or
// after failures) so the bootstrap list tracks churn.
func (r *Router) Refresh(ctx context.Context) error { return r.learn(true) }

// learn fetches the c.members reply from any endpoint and installs the
// ring it describes; adopt additionally replaces the endpoint list with
// the members' addresses. When no endpoint answers, an empty ring (no
// preference) stands in, so a dead or ring-less cluster is asked again
// only after the next failover or ringRelearnOps operations.
func (r *Router) learn(adopt bool) error {
	ring := &Ring{}
	var addrOf map[string]string
	var live []string
	err := r.do("", func(rem *registry.Remote) error {
		out, err := r.Client.CallRemote(rem.Endpoint, &soap.Call{Method: opMembers})
		if err != nil {
			return fmt.Errorf("%w: members %s: %v", registry.ErrUnavailable, rem.Endpoint, err)
		}
		list := func(name string) []string {
			v, _ := outParam(out, name)
			ss, _ := v.([]string)
			return ss
		}
		ids, addrs := list("ids"), list("addrs")
		if live = dedupNonEmpty(append([]string(nil), addrs...)); len(live) == 0 {
			return fmt.Errorf("%w: members %s: empty membership", registry.ErrUnavailable, rem.Endpoint)
		}
		addrOf = make(map[string]string, len(ids))
		for i := 0; i < len(ids) && i < len(addrs); i++ {
			addrOf[ids[i]] = addrs[i]
		}
		v, _ := outParam(out, "vnodes")
		vnodes, _ := v.(int64)
		ring = BuildRing(list("ring"), int(vnodes))
		return nil
	})
	// Installed after do returns, whose own failover bookkeeping would
	// otherwise drop the ring just learned.
	r.mu.Lock()
	if adopt && err == nil {
		r.endpoints, r.last = live, ""
	}
	r.ring, r.addrOf, r.ringOps = ring, addrOf, 0
	r.mu.Unlock()
	return err
}

func dedupNonEmpty(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, v := range in {
		if v != "" && (i == 0 || v != in[i-1]) {
			out = append(out, v)
		}
	}
	return out
}

// Publish implements registry.Lookup.
func (r *Router) Publish(e registry.Entry) (string, error) {
	return r.PublishLeased(e, 0)
}

// PublishLeased implements registry.LeaseHolder.
func (r *Router) PublishLeased(e registry.Entry, lease time.Duration) (string, error) {
	var key string
	err := r.do(e.Name, func(rem *registry.Remote) error {
		var err error
		if lease > 0 {
			key, err = rem.PublishLeased(e, lease)
		} else {
			key, err = rem.Publish(e)
		}
		return err
	})
	return key, err
}

// Renew implements registry.LeaseHolder.
func (r *Router) Renew(key string) error {
	return r.do(RingKey(key), func(rem *registry.Remote) error { return rem.Renew(key) })
}

// Remove implements registry.Lookup.
func (r *Router) Remove(key string) error {
	return r.do(RingKey(key), func(rem *registry.Remote) error { return rem.Remove(key) })
}

// Get implements registry.Lookup.
func (r *Router) Get(key string) (registry.Entry, bool) {
	e, ok, _ := r.GetErr(key)
	return e, ok
}

// GetErr implements registry.CheckedLookup.
func (r *Router) GetErr(key string) (registry.Entry, bool, error) {
	var e registry.Entry
	var found bool
	err := r.do(RingKey(key), func(rem *registry.Remote) error {
		var err error
		e, found, err = rem.GetErr(key)
		return err
	})
	return e, found, err
}

// FindByName implements registry.Lookup.
func (r *Router) FindByName(name string) []registry.Entry {
	es, _ := r.FindByNameErr(name)
	return es
}

// FindByNameErr implements registry.CheckedLookup.
func (r *Router) FindByNameErr(name string) ([]registry.Entry, error) {
	var es []registry.Entry
	err := r.do(name, func(rem *registry.Remote) error {
		var err error
		es, err = rem.FindByNameErr(name)
		return err
	})
	return es, err
}

// FindByQuery implements registry.Lookup. No shard owns a query: whichever
// peer answers scatters it.
func (r *Router) FindByQuery(query string) ([]registry.Entry, error) {
	var es []registry.Entry
	err := r.do("", func(rem *registry.Remote) error {
		var err error
		es, err = rem.FindByQuery(query)
		return err
	})
	return es, err
}
