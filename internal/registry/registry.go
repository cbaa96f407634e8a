// Package registry implements the lookup system of HARNESS II: a
// UDDI-flavoured store of service descriptions that can be queried both by
// indexed attributes (business, name, tModel) and by structural XML
// queries over the stored WSDL documents.
//
// The design follows the paper: "develop a registry/lookup framework based
// on the capability of querying XML documents (actually WSDL descriptions)
// for specific nodes and values. This will allow us to map the generic
// queries generated by our framework onto the specific queries of
// commercial implementations (e.g. UDDI)". The registry stores each
// service's interface and access-point description; after discovery "the
// lookup service is out of the loop" — clients talk to endpoints directly.
//
// The registry itself is exposed as a web service (see Server/Remote in
// server.go), making it usable by any SOAP-aware client.
//
// Concurrency (S34 metacity rework): the store keeps two planes. The READ
// plane — Get, FindByName, and the scans — is lock-free: entries and the
// name index live in cowmap sharded copy-on-write maps and records are
// immutable once published, so a read is atomic snapshot loads plus a
// value copy, with zero locks and zero allocations on the keyed hit path.
// The WRITE plane serializes every mutation on one mutex (writes were
// already serialized by the old RWMutex; what changed is that they no
// longer block readers), which keeps the entry map, the name index, and
// the counters mutually consistent. Renew REPLACES the record rather than
// mutating its deadline in place, so readers never observe a torn record.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harness2/internal/clock"
	"harness2/internal/cowmap"
	"harness2/internal/telemetry"
	"harness2/internal/wsdl"
	"harness2/internal/xmlq"
)

// Entry is one published service description, the analogue of a UDDI
// businessService together with its WSDL document.
type Entry struct {
	// Key uniquely identifies the entry; assigned at publish time when
	// empty.
	Key string
	// Business names the providing businessEntity (for HARNESS II,
	// usually the container or DVM that hosts the service).
	Business string
	// Name is the service name.
	Name string
	// TModels lists technology-model keys, e.g. binding kinds supported.
	TModels []string
	// WSDL is the complete service description document text.
	WSDL string
	// LeaseRemaining reports how much of the entry's lease was left at
	// the moment the entry was read (zero for persistent entries). It is
	// advisory read-side metadata — discovery caches clamp their TTL to
	// it so a cached description never outlives its registration — and
	// is ignored on publish.
	LeaseRemaining time.Duration
}

// TModel is a technology descriptor, per UDDI.
type TModel struct {
	Key      string
	Name     string
	Overview string
}

// sweepEvery rate-limits the lease-expiry sweep: mutating operations
// trigger a sweep at most once per interval of the registry clock.
// Expired entries are invisible to every read path regardless (records
// carry their deadline and readers check it), so the sweep only reclaims
// memory and settles the gauges; bounding it keeps write cost amortized
// O(1) under lease-heavy churn instead of O(entries) per write.
const sweepEvery = 250 * time.Millisecond

// Registry is an in-memory, thread-safe lookup service.
//
// Unlike the e-commerce registries the paper criticises — "biased towards
// storing persistent information about long-lived services rather than
// volatile information related to fluid components" — entries may carry a
// lease: unless renewed, a leased registration disappears when its lease
// expires, so the registry never accumulates descriptions of components
// that have since vanished.
type Registry struct {
	now func() time.Time
	tel *telemetry.Registry

	// met is the registry instrument set (telemetry S27): per-op latency
	// (publish, remove, renew, get, find-name, find-query), live-entry and
	// live-lease gauges, and a lease-expiration counter. All handles are
	// nil-safe.
	met struct {
		lat *telemetry.HistogramVec
		// Per-op latency handles prebound at init so hot reads skip the
		// vec label lookup entirely.
		latPublish, latRenew, latRemove   *telemetry.Histogram
		latGet, latFindName, latFindQuery *telemetry.Histogram
		entries                           *telemetry.Gauge
		leases                            *telemetry.Gauge
		expired                           *telemetry.Counter
	}

	// Read plane: lock-free sharded copy-on-write maps. Records are
	// immutable after publication.
	entries *cowmap.Map[*record]
	byName  *cowmap.Map[[]string] // name -> keys (insertion order); slices immutable
	tmodels *cowmap.Map[TModel]

	// count/leased track stored entries and stored leased entries
	// (including expired-but-unswept ones), maintained under wmu but
	// readable without it.
	count  atomic.Int64
	leased atomic.Int64

	// Write plane: every mutation serializes here.
	wmu       sync.Mutex
	seq       int
	lastSweep time.Time

	// docs caches validated parses by document text: entries of one
	// service type share a WSDL, and cluster replication re-publishes
	// documents the owner already validated, so re-parsing per publish
	// is pure waste. The parse trees are read-only after construction
	// and safely shared between records.
	docMu sync.RWMutex
	docs  map[string]*xmlq.Node
}

// maxDocCache bounds the parsed-document cache; when full it is reset
// rather than evicted piecemeal (publishes repopulate it immediately).
const maxDocCache = 1024

// parsedWSDL returns the validated parse of text, from cache when the
// same document text was published before. Parsing happens outside the
// write lock so concurrent publishes of distinct documents don't
// serialize on the XML parser.
func (r *Registry) parsedWSDL(name, text string) (*xmlq.Node, error) {
	r.docMu.RLock()
	doc, ok := r.docs[text]
	r.docMu.RUnlock()
	if ok {
		return doc, nil
	}
	doc, err := xmlq.ParseString(text)
	if err != nil {
		return nil, fmt.Errorf("registry: entry %q has unparsable WSDL: %w", name, err)
	}
	if _, err := wsdl.Parse(doc); err != nil {
		return nil, fmt.Errorf("registry: entry %q: %w", name, err)
	}
	r.docMu.Lock()
	if len(r.docs) >= maxDocCache {
		r.docs = make(map[string]*xmlq.Node)
	}
	r.docs[text] = doc
	r.docMu.Unlock()
	return doc, nil
}

// record is one stored registration. Immutable once published: Renew and
// re-publication replace the record wholesale, so lock-free readers can
// inspect expires/entry without synchronization.
type record struct {
	entry Entry
	doc   *xmlq.Node // parsed WSDL, cached for structural queries
	// expires is the lease deadline; zero means a persistent entry.
	expires time.Time
	lease   time.Duration
}

// New returns an empty registry on the coarse process clock: leases and
// read-side liveness work at clock.Resolution() granularity (a few ms),
// far below any real lease, and hot reads never pay a real clock call.
func New() *Registry { return NewWithClock(clock.Coarse) }

// NewWithClock returns a registry with an injectable clock for
// deterministic lease tests.
func NewWithClock(now func() time.Time) *Registry {
	r := &Registry{
		now:     now,
		entries: cowmap.New[*record](),
		byName:  cowmap.New[[]string](),
		tmodels: cowmap.New[TModel](),
		docs:    make(map[string]*xmlq.Node),
	}
	r.initMetrics()
	return r
}

// SetTelemetry selects the registry's metrics registry; nil falls back to
// the process default, telemetry.Disabled() switches instrumentation off.
func (r *Registry) SetTelemetry(t *telemetry.Registry) {
	r.tel = t
	r.initMetrics()
}

func (r *Registry) initMetrics() {
	tel := telemetry.Or(r.tel)
	tel.Help("harness_registry_op_latency_ns", "registry operation latency by op")
	tel.Help("harness_registry_entries", "live published entries")
	tel.Help("harness_registry_leases", "live leased (volatile) entries")
	tel.Help("harness_registry_lease_expirations_total", "entries dropped by lease expiry")
	r.met.lat = tel.HistogramVec("harness_registry_op_latency_ns", "op")
	r.met.latPublish = r.met.lat.With("publish")
	r.met.latRenew = r.met.lat.With("renew")
	r.met.latRemove = r.met.lat.With("remove")
	r.met.latGet = r.met.lat.With("get")
	r.met.latFindName = r.met.lat.With("find-name")
	r.met.latFindQuery = r.met.lat.With("find-query")
	r.met.entries = tel.Gauge("harness_registry_entries")
	r.met.leases = tel.Gauge("harness_registry_leases")
	r.met.expired = tel.Counter("harness_registry_lease_expirations_total")
}

// observeRead records one read-op latency against the registry clock;
// when instrumentation is off (nil histogram) it costs one branch and no
// clock call. Virtual-clock registries observe zero-length reads, which
// keeps per-op counts exact without touching the real clock.
func (r *Registry) observeRead(h *telemetry.Histogram, start time.Time) {
	if h != nil {
		h.ObserveDuration(r.now().Sub(start))
	}
}

// gauges refreshes the entry/lease gauges; callers hold r.wmu.
func (r *Registry) gauges() {
	r.met.entries.Set(r.count.Load())
	r.met.leases.Set(r.leased.Load())
}

// appendNameIndex adds key under name; callers hold r.wmu. The slice is
// replaced, never appended in place, so concurrent readers always see a
// complete row.
func (r *Registry) appendNameIndex(name, key string) {
	r.byName.Update(name, func(old []string, _ bool) ([]string, bool) {
		next := make([]string, len(old)+1)
		copy(next, old)
		next[len(old)] = key
		return next, true
	})
}

// dropNameIndex removes key from name's row; callers hold r.wmu.
func (r *Registry) dropNameIndex(name, key string) {
	r.byName.Update(name, func(old []string, ok bool) ([]string, bool) {
		if !ok {
			return nil, false
		}
		next := make([]string, 0, len(old))
		for _, k := range old {
			if k != key {
				next = append(next, k)
			}
		}
		return next, len(next) > 0
	})
}

// Publish validates and stores a persistent entry, returning its key. An
// entry with an existing key replaces the previous version
// (re-publication), which is how providers revise exposure at run time.
func (r *Registry) Publish(e Entry) (string, error) {
	return r.PublishLeased(e, 0)
}

// PublishLeased stores an entry that expires after lease unless renewed
// (lease 0 = persistent) — the volatile registration mode fluid
// components need.
func (r *Registry) PublishLeased(e Entry, lease time.Duration) (string, error) {
	h := r.met.latPublish
	start := h.Start()
	defer h.ObserveSince(start)
	if e.Name == "" {
		return "", fmt.Errorf("registry: entry must be named")
	}
	doc, err := r.parsedWSDL(e.Name, e.WSDL)
	if err != nil {
		return "", err
	}
	r.wmu.Lock()
	defer r.wmu.Unlock()
	now := r.now()
	r.collect(now)
	if e.Key == "" {
		r.seq++
		e.Key = fmt.Sprintf("svc-%d", r.seq)
	}
	if old, ok := r.entries.Load(e.Key); ok {
		r.dropNameIndex(old.entry.Name, e.Key)
		if old.lease > 0 {
			r.leased.Add(-1)
		}
		r.count.Add(-1)
	}
	rec := &record{entry: e, doc: doc, lease: lease}
	if lease > 0 {
		rec.expires = now.Add(lease)
		r.leased.Add(1)
	}
	r.entries.Store(e.Key, rec)
	r.appendNameIndex(e.Name, e.Key)
	r.count.Add(1)
	r.gauges()
	return e.Key, nil
}

// Renew extends a leased entry by its original lease duration, replacing
// the record so lock-free readers never see a half-written deadline.
// Renewing a persistent entry is a no-op; renewing an unknown or expired
// key fails — the provider must re-publish, learning promptly that its
// registration lapsed.
func (r *Registry) Renew(key string) error {
	h := r.met.latRenew
	start := h.Start()
	defer h.ObserveSince(start)
	r.wmu.Lock()
	defer r.wmu.Unlock()
	now := r.now()
	r.collect(now)
	r.gauges()
	rec, ok := r.entries.Load(key)
	if !ok || !rec.live(now) {
		return fmt.Errorf("registry: no entry %q", key)
	}
	if rec.lease > 0 {
		next := *rec
		next.expires = now.Add(rec.lease)
		r.entries.Store(key, &next)
	}
	return nil
}

// live reports whether the record's lease (if any) is still current.
func (rec *record) live(now time.Time) bool {
	return rec.expires.IsZero() || !now.After(rec.expires)
}

// snapshot copies the entry, stamping the lease time left at read time.
func (rec *record) snapshot(now time.Time) Entry {
	e := rec.entry
	if !rec.expires.IsZero() {
		e.LeaseRemaining = rec.expires.Sub(now)
	}
	return e
}

// collect drops expired leases (and their index rows), at most once per
// sweepEvery of registry time; callers hold r.wmu. With no leased records
// the sweep is free, so persistent-only bulk publishes stay linear.
func (r *Registry) collect(now time.Time) {
	if r.leased.Load() == 0 {
		return
	}
	if !r.lastSweep.IsZero() && now.Sub(r.lastSweep) < sweepEvery {
		return
	}
	r.lastSweep = now
	type corpse struct{ key, name string }
	var dead []corpse
	r.entries.Range(func(key string, rec *record) bool {
		if !rec.expires.IsZero() && now.After(rec.expires) {
			dead = append(dead, corpse{key, rec.entry.Name})
		}
		return true
	})
	for _, c := range dead {
		if r.entries.Delete(c.key) {
			r.dropNameIndex(c.name, c.key)
			r.leased.Add(-1)
			r.count.Add(-1)
			r.met.expired.Inc()
		}
	}
}

// Remove unpublishes an entry. Removing an unknown key is an error, so
// callers notice double-removal races.
func (r *Registry) Remove(key string) error {
	h := r.met.latRemove
	start := h.Start()
	defer h.ObserveSince(start)
	r.wmu.Lock()
	defer r.wmu.Unlock()
	rec, ok := r.entries.Load(key)
	if !ok {
		return fmt.Errorf("registry: no entry %q", key)
	}
	r.entries.Delete(key)
	r.dropNameIndex(rec.entry.Name, key)
	if rec.lease > 0 {
		r.leased.Add(-1)
	}
	r.count.Add(-1)
	r.gauges()
	return nil
}

// Get returns the entry with the given key. Lock-free: one sharded
// snapshot load plus the liveness check, 0 allocs.
func (r *Registry) Get(key string) (Entry, bool) {
	now := r.now()
	rec, ok := r.entries.Load(key)
	if !ok || !rec.live(now) {
		r.observeRead(r.met.latGet, now)
		return Entry{}, false
	}
	e := rec.snapshot(now)
	r.observeRead(r.met.latGet, now)
	return e, true
}

// Len returns the number of live published entries. With no leased
// records every entry is live and the count is O(1); otherwise expired-
// but-uncollected leases are filtered out.
func (r *Registry) Len() int {
	if r.leased.Load() == 0 {
		return int(r.count.Load())
	}
	now := r.now()
	n := 0
	r.entries.Range(func(_ string, rec *record) bool {
		if rec.live(now) {
			n++
		}
		return true
	})
	return n
}

// Stored returns the number of stored entries in O(1). Unlike Len it
// counts expired leases the sweep (at most sweepEvery behind) has not yet
// reclaimed, which is what per-operation accounting can afford.
func (r *Registry) Stored() int { return int(r.count.Load()) }

// List returns all live entries sorted by key.
func (r *Registry) List() []Entry {
	now := r.now()
	out := make([]Entry, 0, r.count.Load())
	r.entries.Range(func(_ string, rec *record) bool {
		if rec.live(now) {
			out = append(out, rec.snapshot(now))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// FindByName returns live entries published under the exact service name,
// using the name index (no document scan). Lock-free; the index row and
// the entry map are separate atomic snapshots, so each hit re-checks the
// record's name to tolerate momentary skew during re-publication.
func (r *Registry) FindByName(name string) []Entry {
	now := r.now()
	keys, ok := r.byName.Load(name)
	if !ok {
		r.observeRead(r.met.latFindName, now)
		return nil
	}
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		if rec, ok := r.entries.Load(k); ok && rec.live(now) && rec.entry.Name == name {
			out = append(out, rec.snapshot(now))
		}
	}
	r.observeRead(r.met.latFindName, now)
	return out
}

// FindByTModel returns live entries advertising the given tModel key.
func (r *Registry) FindByTModel(tmodel string) []Entry {
	now := r.now()
	var out []Entry
	r.entries.Range(func(_ string, rec *record) bool {
		if !rec.live(now) {
			return true
		}
		for _, tm := range rec.entry.TModels {
			if tm == tmodel {
				out = append(out, rec.snapshot(now))
				break
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// FindByQuery compiles an xmlq path query and returns every entry whose
// WSDL document matches. This is the generic structural query mechanism
// the framework maps onto concrete registries; e.g.
//
//	//binding/xdr:binding            services with an XDR endpoint
//	//service[@name='MatMulService'] a specific service
//	//part[@type='xsd:ArrayOfDouble'] services consuming double arrays
func (r *Registry) FindByQuery(query string) ([]Entry, error) {
	h := r.met.latFindQuery
	start := h.Start()
	defer h.ObserveSince(start)
	q, err := xmlq.Compile(query)
	if err != nil {
		return nil, err
	}
	now := r.now()
	var out []Entry
	r.entries.Range(func(_ string, rec *record) bool {
		if rec.live(now) && q.Matches(rec.doc) {
			out = append(out, rec.snapshot(now))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// PublishTModel registers a technology model.
func (r *Registry) PublishTModel(tm TModel) error {
	if tm.Key == "" || tm.Name == "" {
		return fmt.Errorf("registry: tModel needs key and name")
	}
	r.tmodels.Store(tm.Key, tm)
	return nil
}

// TModelByKey returns a registered tModel.
func (r *Registry) TModelByKey(key string) (TModel, bool) {
	return r.tmodels.Load(key)
}

// Lookup is the discovery interface shared by the local Registry and the
// Remote SOAP client, letting containers and DVMs use either transparently.
type Lookup interface {
	Publish(e Entry) (string, error)
	Remove(key string) error
	Get(key string) (Entry, bool)
	FindByName(name string) []Entry
	FindByQuery(query string) ([]Entry, error)
}

var _ Lookup = (*Registry)(nil)

// ErrUnavailable distinguishes "the registry could not be reached" from
// "the registry answered: not there". Network lookups wrap transport
// failures in it so read-through caches never turn an outage into a
// negative-cached miss and binders never report a live-but-unreachable
// service as unpublished.
var ErrUnavailable = errors.New("registry: lookup unavailable")

// CheckedLookup is the error-distinguishing read surface. Get and
// FindByName on Lookup flatten transport failures into "absent" for
// interface-compatibility; sources that can fail to answer additionally
// implement CheckedLookup, and error-aware callers (registry.Cache,
// invoke.Binder, the cluster router) prefer it. A returned error wraps
// ErrUnavailable when no authoritative answer was obtained.
type CheckedLookup interface {
	GetErr(key string) (Entry, bool, error)
	FindByNameErr(name string) ([]Entry, error)
}

var _ CheckedLookup = (*Registry)(nil)

// GetErr implements CheckedLookup; a co-located registry always answers.
func (r *Registry) GetErr(key string) (Entry, bool, error) {
	e, ok := r.Get(key)
	return e, ok, nil
}

// FindByNameErr implements CheckedLookup; a co-located registry always
// answers.
func (r *Registry) FindByNameErr(name string) ([]Entry, error) {
	return r.FindByName(name), nil
}

// WellKnownTModels returns the tModels HARNESS II pre-registers: one per
// binding kind, so clients can discover services by access mechanism.
func WellKnownTModels() []TModel {
	kinds := wsdl.BindingKinds()
	out := make([]TModel, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, TModel{
			Key:      "uddi:harness2:binding:" + k.String(),
			Name:     strings.ToUpper(k.String()) + " binding",
			Overview: "services reachable through the " + k.String() + " binding",
		})
	}
	return out
}

// TModelsFor derives the binding tModel keys advertised by a WSDL document.
func TModelsFor(d *wsdl.Definitions) []string {
	seen := map[string]bool{}
	var out []string
	for _, b := range d.Bindings {
		key := "uddi:harness2:binding:" + b.Kind.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
