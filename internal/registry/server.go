package registry

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"harness2/internal/resilience"
	"harness2/internal/resilience/chaos"
	"harness2/internal/soap"
)

// Backend is the operation surface Server exposes over SOAP. The
// in-process *Registry satisfies it, and so does a cluster node routing
// each operation to its owning shard — the server wiring is identical
// either way.
type Backend interface {
	Lookup
	PublishLeased(e Entry, lease time.Duration) (string, error)
	Renew(key string) error
}

// FaultCodeRedirect is the SOAP fault code carrying ownership redirects:
// a cluster peer that does not own a key answers with it, naming the
// owner's endpoint in Detail, and Remote follows it.
const FaultCodeRedirect = "Redirect"

// Server exposes a registry Backend as a SOAP web service — the registry
// is itself a full-fledged service, per the paper's "every entity is
// potentially a public service" principle.
//
// Operations: publish, publishLeased, renew, remove, get, findByName,
// findByQuery; cluster peers add peer-RPC operations via HandleExtra.
type Server struct {
	reg  Backend
	soap *soap.Server
}

// NewServer wraps reg in a SOAP dispatcher.
func NewServer(reg *Registry) *Server { return NewBackendServer(reg) }

// NewBackendServer wraps any Backend (a local registry or a cluster
// node) in a SOAP dispatcher.
func NewBackendServer(b Backend) *Server {
	s := &Server{reg: b, soap: soap.NewServer()}
	s.soap.Handle("publish", s.publish)
	s.soap.Handle("publishLeased", s.publishLeased)
	s.soap.Handle("renew", s.renew)
	s.soap.Handle("remove", s.remove)
	s.soap.Handle("get", s.get)
	s.soap.Handle("findByName", s.find(func(arg string) ([]Entry, error) {
		// The checked read lets a cluster backend report an unreachable
		// shard group as a Server fault instead of an empty result.
		if cl, ok := b.(CheckedLookup); ok {
			return cl.FindByNameErr(arg)
		}
		return b.FindByName(arg), nil
	}))
	s.soap.Handle("findByQuery", s.find(b.FindByQuery))
	return s
}

// HandleExtra registers an additional SOAP action on the server —
// cluster peers hang their peer-RPC surface (replicate, gossip, handoff,
// members) off the same dispatcher the client operations use.
func (s *Server) HandleExtra(action string, h soap.Handler) {
	s.soap.Handle(action, h)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.soap.ServeHTTP(w, r)
}

func param(call *soap.Call, name string) (any, error) {
	for _, p := range call.Params {
		if p.Name == name {
			return p.Value, nil
		}
	}
	return nil, &soap.Fault{Code: "Client", String: fmt.Sprintf("missing parameter %q", name)}
}

func stringParam(call *soap.Call, name string) (string, error) {
	v, err := param(call, name)
	if err != nil {
		return "", err
	}
	s, ok := v.(string)
	if !ok {
		return "", &soap.Fault{Code: "Client", String: fmt.Sprintf("parameter %q must be a string", name)}
	}
	return s, nil
}

// int64Param reads an integer parameter tolerating the numeric Go types
// a decoded SOAP value may surface as (int64, int32, int, float64).
func int64Param(call *soap.Call, name string) (int64, error) {
	v, err := param(call, name)
	if err != nil {
		return 0, err
	}
	switch n := v.(type) {
	case int64:
		return n, nil
	case int32:
		return int64(n), nil
	case int:
		return int64(n), nil
	case float64:
		return int64(n), nil
	}
	return 0, &soap.Fault{Code: "Client", String: fmt.Sprintf("parameter %q must be an integer", name)}
}

// decodeEntry reads the shared publish parameter set into an Entry.
func decodeEntry(call *soap.Call) (Entry, error) {
	e := Entry{}
	var err error
	if e.Name, err = stringParam(call, "name"); err != nil {
		return e, err
	}
	if e.WSDL, err = stringParam(call, "wsdl"); err != nil {
		return e, err
	}
	if v, err := param(call, "business"); err == nil {
		e.Business, _ = v.(string)
	}
	if v, err := param(call, "key"); err == nil {
		e.Key, _ = v.(string)
	}
	if v, err := param(call, "tmodels"); err == nil {
		if tms, ok := v.([]string); ok {
			e.TModels = tms
		}
	}
	return e, nil
}

// opFault maps a backend error onto the SOAP fault taxonomy:
// reachability failures become Server faults (the client must not read
// them as "not there"), everything else is a Client fault.
func opFault(err error) error {
	if errors.Is(err, ErrUnavailable) {
		return &soap.Fault{Code: "Server", String: err.Error()}
	}
	return &soap.Fault{Code: "Client", String: err.Error()}
}

func (s *Server) publish(call *soap.Call) ([]soap.Param, error) {
	e, err := decodeEntry(call)
	if err != nil {
		return nil, err
	}
	key, err := s.reg.Publish(e)
	if err != nil {
		return nil, opFault(err)
	}
	return []soap.Param{{Name: "key", Value: key}}, nil
}

func (s *Server) publishLeased(call *soap.Call) ([]soap.Param, error) {
	e, err := decodeEntry(call)
	if err != nil {
		return nil, err
	}
	ms, err := int64Param(call, "leaseMs")
	if err != nil {
		return nil, err
	}
	if ms < 0 {
		return nil, &soap.Fault{Code: "Client", String: "leaseMs must be non-negative"}
	}
	key, err := s.reg.PublishLeased(e, time.Duration(ms)*time.Millisecond)
	if err != nil {
		return nil, opFault(err)
	}
	return []soap.Param{{Name: "key", Value: key}}, nil
}

func (s *Server) renew(call *soap.Call) ([]soap.Param, error) {
	key, err := stringParam(call, "key")
	if err != nil {
		return nil, err
	}
	if err := s.reg.Renew(key); err != nil {
		return nil, opFault(err)
	}
	return []soap.Param{{Name: "ok", Value: true}}, nil
}

func (s *Server) remove(call *soap.Call) ([]soap.Param, error) {
	key, err := stringParam(call, "key")
	if err != nil {
		return nil, err
	}
	if err := s.reg.Remove(key); err != nil {
		return nil, opFault(err)
	}
	return []soap.Param{{Name: "ok", Value: true}}, nil
}

func (s *Server) get(call *soap.Call) ([]soap.Param, error) {
	key, err := stringParam(call, "key")
	if err != nil {
		return nil, err
	}
	// Prefer the checked read so a cluster backend's "shard unreachable"
	// surfaces as a Server fault, not as a spurious "no entry".
	var (
		e  Entry
		ok bool
	)
	if cl, isChecked := s.reg.(CheckedLookup); isChecked {
		var gerr error
		e, ok, gerr = cl.GetErr(key)
		if gerr != nil {
			return nil, opFault(gerr)
		}
	} else {
		e, ok = s.reg.Get(key)
	}
	if !ok {
		return nil, &soap.Fault{Code: "Client", String: fmt.Sprintf("no entry %q", key)}
	}
	return entryParams(e), nil
}

func (s *Server) find(fn func(string) ([]Entry, error)) soap.Handler {
	return func(call *soap.Call) ([]soap.Param, error) {
		arg, err := stringParam(call, "arg")
		if err != nil {
			return nil, err
		}
		entries, err := fn(arg)
		if err != nil {
			return nil, opFault(err)
		}
		return MarshalEntries(entries), nil
	}
}

// MarshalEntries renders a find result in the column-wise wire encoding
// (parallel arrays over the matches), shared by the public find
// operations and the cluster peer RPCs. The four string columns share
// one backing array, each capped at its own length.
func MarshalEntries(entries []Entry) []soap.Param {
	n := len(entries)
	cols := make([]string, 4*n)
	keys, names := cols[:n:n], cols[n:2*n:2*n]
	businesses, wsdls := cols[2*n:3*n:3*n], cols[3*n:]
	leases := make([]int64, n)
	for i, e := range entries {
		keys[i] = e.Key
		names[i] = e.Name
		businesses[i] = e.Business
		wsdls[i] = e.WSDL
		leases[i] = e.LeaseRemaining.Milliseconds()
	}
	return []soap.Param{
		{Name: "keys", Value: keys},
		{Name: "names", Value: names},
		{Name: "businesses", Value: businesses},
		{Name: "wsdls", Value: wsdls},
		{Name: "leases", Value: leases},
	}
}

// UnmarshalEntries reads the column-wise find encoding back into
// entries, tolerating servers that omit the (newer) leases column.
func UnmarshalEntries(out []soap.Param) ([]Entry, error) {
	var keys, names, businesses, wsdls []string
	if v, ok := outParam(out, "keys"); ok {
		keys, _ = v.([]string)
	}
	if v, ok := outParam(out, "names"); ok {
		names, _ = v.([]string)
	}
	if v, ok := outParam(out, "businesses"); ok {
		businesses, _ = v.([]string)
	}
	if v, ok := outParam(out, "wsdls"); ok {
		wsdls, _ = v.([]string)
	}
	var leases []int64
	if v, ok := outParam(out, "leases"); ok {
		leases, _ = v.([]int64)
	}
	n := len(keys)
	if len(names) != n || len(businesses) != n || len(wsdls) != n {
		return nil, fmt.Errorf("registry: malformed find response")
	}
	entries := make([]Entry, n)
	for i := 0; i < n; i++ {
		entries[i] = Entry{Key: keys[i], Name: names[i], Business: businesses[i], WSDL: wsdls[i]}
		if i < len(leases) {
			entries[i].LeaseRemaining = time.Duration(leases[i]) * time.Millisecond
		}
	}
	return entries, nil
}

// MarshalEntry renders one entry (including its lease remaining, as
// leaseMs) as the row-wise parameter set get responses and cluster
// replication RPCs share.
func MarshalEntry(e Entry) []soap.Param { return entryParams(e) }

// UnmarshalEntry reads the parameter set produced by MarshalEntry or by
// a publish request; a leaseMs parameter, when present, lands in
// LeaseRemaining.
func UnmarshalEntry(call *soap.Call) (Entry, error) {
	e, err := decodeEntry(call)
	if err != nil {
		return e, err
	}
	if v, perr := param(call, "leaseMs"); perr == nil {
		if ms, ok := asInt64(v); ok {
			e.LeaseRemaining = time.Duration(ms) * time.Millisecond
		}
	}
	return e, nil
}

func entryParams(e Entry) []soap.Param {
	tms := e.TModels
	if tms == nil {
		tms = []string{}
	}
	return []soap.Param{
		{Name: "key", Value: e.Key},
		{Name: "name", Value: e.Name},
		{Name: "business", Value: e.Business},
		{Name: "tmodels", Value: tms},
		{Name: "wsdl", Value: e.WSDL},
		{Name: "leaseMs", Value: e.LeaseRemaining.Milliseconds()},
	}
}

// Remote is a SOAP client view of a registry server; it satisfies Lookup
// so callers can swap a co-located Registry for a network one unchanged.
type Remote struct {
	Endpoint string
	Client   soap.Client
	// Policy, when non-nil, runs every call through the resilience plane:
	// transient transport failures (including registry restarts) are
	// retried with backoff for idempotent operations, and per-endpoint
	// breakers stop hammering a dead registry. nil disables all of it.
	Policy *resilience.Policy
	// Chaos, when non-nil, evaluates the fault injector before every
	// call at site ("registry", method, endpoint) — the hook outage and
	// cluster tests use to fail exactly the Nth lookup. nil costs one
	// branch.
	Chaos *chaos.Injector

	redirects atomic.Uint64
}

// Redirects counts the ownership redirects this client has followed; a
// rise tells a placement-aware caller (the cluster Router) that its view
// of the ring is stale.
func (r *Remote) Redirects() uint64 { return r.redirects.Load() }

var _ Lookup = (*Remote)(nil)
var _ CheckedLookup = (*Remote)(nil)

// NewRemote returns a client for the registry at endpoint.
func NewRemote(endpoint string) *Remote {
	return &Remote{Endpoint: endpoint}
}

// maxRedirectHops bounds ownership-redirect following so two confused
// peers cannot bounce a client forever mid-rebalance.
const maxRedirectHops = 3

// call performs one SOAP exchange, routed through the resilience policy
// when one is configured, following cluster ownership redirects. Lookup
// methods carry no context, so policy executions run against
// context.Background(): the policy's own attempt timeouts and retry
// budget still bound the call.
func (r *Remote) call(method string, idempotent bool, params []soap.Param) ([]soap.Param, error) {
	endpoint := r.Endpoint
	for hop := 0; ; hop++ {
		out, err := r.callEndpoint(endpoint, method, idempotent, params)
		if f := (*soap.Fault)(nil); errors.As(err, &f) && f.Code == FaultCodeRedirect &&
			f.Detail != "" && hop < maxRedirectHops {
			// The receiving peer no longer owns the key (the ring moved
			// under us); retry against the owner it named.
			endpoint = f.Detail
			r.redirects.Add(1)
			continue
		}
		return out, err
	}
}

func (r *Remote) callEndpoint(endpoint, method string, idempotent bool, params []soap.Param) ([]soap.Param, error) {
	if err := r.Chaos.Apply(context.Background(), "registry", method, endpoint); err != nil {
		return nil, err
	}
	if r.Policy == nil {
		return r.Client.CallRemote(context.Background(), endpoint, &soap.Call{Method: method, Params: params})
	}
	out, err := r.Policy.Do(context.Background(), endpoint, "registry."+method, idempotent,
		func(ctx context.Context) (any, error) {
			return r.Client.CallRemote(context.Background(), endpoint, &soap.Call{Method: method, Params: params})
		})
	if err != nil {
		return nil, err
	}
	res, _ := out.([]soap.Param)
	return res, nil
}

func outParam(out []soap.Param, name string) (any, bool) {
	for _, p := range out {
		if p.Name == name {
			return p.Value, true
		}
	}
	return nil, false
}

func entryCallParams(e Entry) []soap.Param {
	tms := e.TModels
	if tms == nil {
		tms = []string{}
	}
	return []soap.Param{
		{Name: "name", Value: e.Name},
		{Name: "wsdl", Value: e.WSDL},
		{Name: "business", Value: e.Business},
		{Name: "key", Value: e.Key},
		{Name: "tmodels", Value: tms},
	}
}

func keyResult(out []soap.Param, op string) (string, error) {
	if v, ok := outParam(out, "key"); ok {
		if s, ok := v.(string); ok {
			return s, nil
		}
	}
	return "", fmt.Errorf("registry: %s response missing key", op)
}

// Publish publishes an entry through the remote registry. A keyed publish
// is idempotent (re-publication overwrites), so the policy may retry it;
// an unkeyed publish is retried only when the request provably never
// reached the server.
func (r *Remote) Publish(e Entry) (string, error) {
	out, err := r.call("publish", e.Key != "", entryCallParams(e))
	if err != nil {
		return "", err
	}
	return keyResult(out, "publish")
}

// PublishLeased publishes an entry with a lease through the remote
// registry; it expires unless renewed via Renew.
func (r *Remote) PublishLeased(e Entry, lease time.Duration) (string, error) {
	params := append(entryCallParams(e),
		soap.Param{Name: "leaseMs", Value: lease.Milliseconds()})
	out, err := r.call("publishLeased", e.Key != "", params)
	if err != nil {
		return "", err
	}
	return keyResult(out, "publishLeased")
}

// Renew extends the keyed entry's lease remotely. Renewal is idempotent:
// re-arming an already-renewed lease is harmless, so the policy retries
// it through transient registry outages.
func (r *Remote) Renew(key string) error {
	_, err := r.call("renew", true, []soap.Param{{Name: "key", Value: key}})
	return err
}

// Remove unpublishes the keyed entry remotely.
func (r *Remote) Remove(key string) error {
	_, err := r.call("remove", false, []soap.Param{{Name: "key", Value: key}})
	return err
}

// notFoundFault recognises the server's authoritative "no entry" answer,
// which arrives as a Client fault; anything else — transport failure,
// Server fault, decode error — is NOT an authoritative miss.
func notFoundFault(err error) bool {
	var f *soap.Fault
	return errors.As(err, &f) && f.Code == "Client" && strings.Contains(f.String, "no entry")
}

// Get fetches one entry; a missing key yields ok=false. A transport
// failure also yields ok=false — use GetErr to tell the two apart.
func (r *Remote) Get(key string) (Entry, bool) {
	e, ok, _ := r.GetErr(key)
	return e, ok
}

// GetErr fetches one entry, distinguishing an authoritative miss
// (ok=false, err=nil) from a failure to reach the registry (err wraps
// ErrUnavailable) — the distinction that keeps caches from
// negative-caching an outage.
func (r *Remote) GetErr(key string) (Entry, bool, error) {
	out, err := r.call("get", true, []soap.Param{{Name: "key", Value: key}})
	if err != nil {
		if notFoundFault(err) {
			return Entry{}, false, nil
		}
		var f *soap.Fault
		if errors.As(err, &f) && f.Code == "Client" {
			// Any other Client fault is an authoritative rejection of
			// the request itself, not an outage.
			return Entry{}, false, err
		}
		return Entry{}, false, fmt.Errorf("%w: get %s: %v", ErrUnavailable, r.Endpoint, err)
	}
	e := Entry{}
	if v, ok := outParam(out, "key"); ok {
		e.Key, _ = v.(string)
	}
	if v, ok := outParam(out, "name"); ok {
		e.Name, _ = v.(string)
	}
	if v, ok := outParam(out, "business"); ok {
		e.Business, _ = v.(string)
	}
	if v, ok := outParam(out, "tmodels"); ok {
		e.TModels, _ = v.([]string)
	}
	if v, ok := outParam(out, "wsdl"); ok {
		e.WSDL, _ = v.(string)
	}
	// Older servers omit leaseMs; tolerate its absence and any numeric type.
	if v, ok := outParam(out, "leaseMs"); ok {
		if ms, ok := asInt64(v); ok {
			e.LeaseRemaining = time.Duration(ms) * time.Millisecond
		}
	}
	return e, true, nil
}

// asInt64 reads the numeric Go types a decoded SOAP value may surface as.
func asInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case int32:
		return int64(n), true
	case int:
		return int64(n), true
	case float64:
		return int64(n), true
	}
	return 0, false
}

func (r *Remote) findRemote(method, arg string) ([]Entry, error) {
	out, err := r.call(method, true, []soap.Param{{Name: "arg", Value: arg}})
	if err != nil {
		var f *soap.Fault
		if errors.As(err, &f) && f.Code == "Client" {
			// Authoritative server-side rejection (e.g. a bad query).
			return nil, err
		}
		return nil, fmt.Errorf("%w: %s %s: %v", ErrUnavailable, method, r.Endpoint, err)
	}
	return UnmarshalEntries(out)
}

// FindByName queries the remote name index. A transport failure yields
// nil, indistinguishable from an empty result — use FindByNameErr to
// tell the two apart.
func (r *Remote) FindByName(name string) []Entry {
	entries, err := r.FindByNameErr(name)
	if err != nil {
		return nil
	}
	return entries
}

// FindByNameErr queries the remote name index, distinguishing an empty
// result from a failure to reach the registry (err wraps
// ErrUnavailable).
func (r *Remote) FindByNameErr(name string) ([]Entry, error) {
	return r.findRemote("findByName", name)
}

// FindByQuery runs a structural XML query remotely.
func (r *Remote) FindByQuery(query string) ([]Entry, error) {
	return r.findRemote("findByQuery", query)
}
