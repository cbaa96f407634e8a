package bench

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"harness2/internal/dvm"
	"harness2/internal/invoke"
	"harness2/internal/registry"
	"harness2/internal/resilience/chaos"
	"harness2/internal/simnet"
	"harness2/internal/wire"
)

// E15 — the "metacity" macro-load harness (S34): every experiment before
// it is a microbenchmark; this one drives the whole stack — registry,
// discovery caches, DVM coherency, invocation — under a metacity's worth
// of concurrent clients and reports where it saturates.
//
// Two modes share one table:
//
//   - simnet virtual time: 10⁵–10⁶ simulated clients over the
//     deterministic fabric. Real registry.Registry and registry.Cache
//     instances run on an injected virtual clock; service popularity is
//     Zipf-distributed (the hot-key cache stress); service nodes die and
//     revive, coherency members churn, and a seeded chaos injector adds
//     latency tails and connect failures. Closed-loop clients think
//     between operations; a quarter of the population is open-loop and
//     fires on a fixed schedule regardless of completion. The entire run
//     is a pure function of its config — two same-seed runs produce
//     byte-identical results (TestE15SimnetDeterminism).
//   - real sockets: thousands of goroutine clients resolve Zipf-hot names
//     through one shared discovery cache (the lock-free hit path under
//     real contention) and invoke over multiplexed XDR against two live
//     hosts; one host is killed mid-run and its clients fail over.
//
// Per-operation latency is modelled (sim) or measured (real);
// availability is the fraction of operations that completed.

// e15SimClients sizes the simulated client population.
func (p Params) e15SimClients() int {
	if p.Short {
		return 10_000
	}
	if p.Full {
		return 1_000_000
	}
	return 100_000
}

// e15SimOps is the per-client closed-loop operation count.
func (p Params) e15SimOps() int {
	if p.Short {
		return 2
	}
	return 4
}

// e15Services sizes the published service population (the Zipf rank space).
func (p Params) e15Services() int {
	if p.Short {
		return 512
	}
	if p.Full {
		return 8192
	}
	return 2048
}

// e15RealClients is the real-socket goroutine client count.
func (p Params) e15RealClients() int {
	if p.Short {
		return 256
	}
	if p.Full {
		return 4096
	}
	return 2048
}

// e15RealCalls is the per-client call count in real-socket mode.
func (p Params) e15RealCalls() int {
	if p.Short {
		return 4
	}
	if p.Full {
		return 16
	}
	return 8
}

// E15SimConfig parameterizes one deterministic virtual-time run.
type E15SimConfig struct {
	Seed         int64
	Clients      int
	OpsPerClient int
	Services     int
	Hnodes       int           // client-facing hosts (coherency members)
	ServiceNodes int           // invocation targets behind the hnodes
	Strategy     string        // full-sync | decentralized | hybrid-k4
	Policy       string        // none | retry1 | retry3
	Chaos        bool          // seeded latency tails + connect faults
	CacheTTL     time.Duration // per-hnode discovery cache TTL (virtual)
}

func (c E15SimConfig) withDefaults() E15SimConfig {
	if c.Hnodes <= 0 {
		c.Hnodes = 16
	}
	if c.ServiceNodes <= 0 {
		c.ServiceNodes = 8
	}
	if c.Services <= 0 {
		c.Services = 1024
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 250 * time.Millisecond
	}
	if c.Strategy == "" {
		c.Strategy = "hybrid-k4"
	}
	if c.Policy == "" {
		c.Policy = "retry1"
	}
	return c
}

// E15SimResult is one run's outcome. Every field is a deterministic
// function of the config, including the percentiles: the determinism
// test compares whole values.
type E15SimResult struct {
	Strategy, Policy string

	Ops, Invokes, Discoveries, DVMOps uint64
	Succeeded, Failed, Retried        uint64
	CacheHits, CacheMisses            uint64

	FabricMessages int
	FabricBytes    int64
	FabricDrops    int

	VirtualElapsed time.Duration
	P50, P99       time.Duration
}

// Availability is the completed-operation fraction.
func (r E15SimResult) Availability() float64 {
	if r.Ops == 0 {
		return 1
	}
	return float64(r.Succeeded) / float64(r.Ops)
}

// Throughput is operations per second of virtual time.
func (r E15SimResult) Throughput() float64 {
	if r.VirtualElapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.VirtualElapsed.Seconds()
}

// --- virtual-time machinery -------------------------------------------------

// e15Epoch anchors the virtual clock; any fixed instant works.
var e15Epoch = time.Unix(1_000_000_000, 0)

const e15RegNode = "reg0"

// e15DVMInstances bounds the per-node instance space DVM updates cycle
// through, keeping the coherency store at live-table size (hnodes × 16
// entries) however long the run is.
const e15DVMInstances = 16

func e15HnName(i int) string  { return fmt.Sprintf("hn%d", i) }
func e15SnName(i int) string  { return fmt.Sprintf("sn%d", i) }
func e15SvcName(i int) string { return fmt.Sprintf("Svc%d", i) }

// Control-event kinds (heap entries with client < 0).
const (
	e15EvKillSn   = -1
	e15EvReviveSn = -2
	e15EvKillHn   = -3
	e15EvReviveHn = -4
)

type e15Event struct {
	at     time.Duration
	client int // >= 0: client op; < 0: control event kind
	arg    int // node index for control events
}

// e15Heap is a deterministic min-heap: ties break on (client, arg) so pop
// order never depends on insertion order.
type e15Heap []e15Event

func (h e15Heap) Len() int { return len(h) }
func (h e15Heap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].client != h[j].client {
		return h[i].client < h[j].client
	}
	return h[i].arg < h[j].arg
}
func (h e15Heap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *e15Heap) Push(x any)     { *h = append(*h, x.(e15Event)) }
func (h *e15Heap) Pop() any       { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *e15Heap) add(e e15Event) { heap.Push(h, e) }
func (h *e15Heap) next() e15Event { return heap.Pop(h).(e15Event) }

// e15Lookup charges each registry read to the fabric before answering
// from the co-located store — what a Remote lookup costs an hnode. It
// implements CheckedLookup so the cache can tell a fabric outage (never
// cached) from an authoritative miss (negative-cached).
type e15Lookup struct {
	net  *simnet.Network
	reg  *registry.Registry
	from string

	cost    time.Duration // modelled cost of the current op; reset per op
	fetches uint64        // upstream round trips (cache misses)
}

func (l *e15Lookup) charge(req, resp int) error {
	l.fetches++
	d, err := l.net.RTT(l.from, e15RegNode, req, resp)
	l.cost += d
	return err
}

func (l *e15Lookup) GetErr(key string) (registry.Entry, bool, error) {
	if err := l.charge(128, 1500); err != nil {
		return registry.Entry{}, false, fmt.Errorf("%w: %v", registry.ErrUnavailable, err)
	}
	e, ok := l.reg.Get(key)
	return e, ok, nil
}

func (l *e15Lookup) FindByNameErr(name string) ([]registry.Entry, error) {
	if err := l.charge(128, 1500); err != nil {
		return nil, fmt.Errorf("%w: %v", registry.ErrUnavailable, err)
	}
	return l.reg.FindByName(name), nil
}

func (l *e15Lookup) Get(key string) (registry.Entry, bool) {
	e, ok, _ := l.GetErr(key)
	return e, ok
}

func (l *e15Lookup) FindByName(name string) []registry.Entry {
	es, _ := l.FindByNameErr(name)
	return es
}

func (l *e15Lookup) FindByQuery(query string) ([]registry.Entry, error) {
	if err := l.charge(256, 4096); err != nil {
		return nil, fmt.Errorf("%w: %v", registry.ErrUnavailable, err)
	}
	return l.reg.FindByQuery(query)
}

func (l *e15Lookup) Publish(e registry.Entry) (string, error) {
	if err := l.charge(1500, 64); err != nil {
		return "", fmt.Errorf("%w: %v", registry.ErrUnavailable, err)
	}
	return l.reg.Publish(e)
}

func (l *e15Lookup) Remove(key string) error {
	if err := l.charge(128, 64); err != nil {
		return fmt.Errorf("%w: %v", registry.ErrUnavailable, err)
	}
	return l.reg.Remove(key)
}

var (
	_ registry.Lookup        = (*e15Lookup)(nil)
	_ registry.CheckedLookup = (*e15Lookup)(nil)
)

// e15Sim is the single-goroutine virtual-time world.
type e15Sim struct {
	cfg   E15SimConfig
	net   *simnet.Network
	coh   dvm.Coherency
	reg   *registry.Registry
	looks []*e15Lookup
	cache []*registry.Cache
	rng   *rand.Rand
	zipf  *Zipf

	vnow     time.Duration
	events   e15Heap
	attempts int

	snDown []bool
	svcKey []string // published key per service rank ("" while dead)
	seq    int      // DVM update sequence

	lats []time.Duration
	res  E15SimResult
}

// E15SimRun executes one deterministic virtual-time metacity run.
func E15SimRun(cfg E15SimConfig) (E15SimResult, error) {
	cfg = cfg.withDefaults()
	s := &e15Sim{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	s.zipf = NewZipf(cfg.Seed+1, 1.1, cfg.Services)
	switch cfg.Policy {
	case "none":
		s.attempts = 1
	case "retry1":
		s.attempts = 2
	case "retry3":
		s.attempts = 4
	default:
		return E15SimResult{}, fmt.Errorf("bench: unknown E15 policy %q", cfg.Policy)
	}
	s.res.Strategy = cfg.Strategy
	s.res.Policy = cfg.Policy

	s.net = simnet.New(simnet.LAN)
	switch cfg.Strategy {
	case "full-sync":
		s.coh = dvm.NewFullSync(s.net)
	case "decentralized":
		s.coh = dvm.NewDecentralized(s.net)
	case "hybrid-k4":
		s.coh = dvm.NewHybrid(s.net, 4)
	default:
		return E15SimResult{}, fmt.Errorf("bench: unknown E15 strategy %q", cfg.Strategy)
	}
	if cfg.Chaos {
		// Fault placement is what keeps the run deterministic: error
		// faults fire only on single-send sites (service nodes, the
		// registry), where attempt order is the heap's pop order; the
		// coherency fabric between hnodes gets latency tails only, so a
		// broadcast's cost stays an order-independent max.
		inj, err := chaos.New(cfg.Seed,
			chaos.Rule{Binding: "simnet", Endpoint: "sn*", Kind: chaos.FaultError, Prob: 0.004},
			chaos.Rule{Binding: "simnet", Endpoint: e15RegNode, Kind: chaos.FaultError, Prob: 0.002},
			chaos.Rule{Binding: "simnet", Kind: chaos.FaultLatency, Prob: 0.01, Latency: 5 * time.Millisecond},
		)
		if err != nil {
			return E15SimResult{}, err
		}
		s.net.SetChaos(inj)
	}

	// Virtual clock shared by the registry and every cache.
	vclock := func() time.Time { return e15Epoch.Add(s.vnow) }

	// Topology: the registry shard, the client-facing hnodes (coherency
	// members), and the invocation-target service nodes.
	s.net.AddNode(e15RegNode)
	for i := 0; i < cfg.Hnodes; i++ {
		if _, err := s.coh.AddNode(e15HnName(i)); err != nil {
			return E15SimResult{}, err
		}
	}
	for i := 0; i < cfg.ServiceNodes; i++ {
		s.net.AddNode(e15SnName(i))
	}
	s.snDown = make([]bool, cfg.ServiceNodes)

	// Seed each hnode's DVM replica so queries have answers.
	for i := 0; i < cfg.Hnodes; i++ {
		hn := e15HnName(i)
		if _, err := s.coh.Apply(hn, dvm.Event{Kind: dvm.ServiceAdd, Node: hn,
			Entry: seedEntry(hn, 0)}); err != nil {
			return E15SimResult{}, err
		}
	}

	// The registry plane: one shard process, Zipf-rank-named services
	// homed round-robin on the service nodes.
	s.reg = registry.NewWithClock(vclock)
	xml, err := e17WSDL()
	if err != nil {
		return E15SimResult{}, err
	}
	s.svcKey = make([]string, cfg.Services)
	for i := 0; i < cfg.Services; i++ {
		key, err := s.reg.Publish(registry.Entry{
			Name:     e15SvcName(i),
			Key:      e15SvcName(i) + "::k",
			Business: e15SnName(i % cfg.ServiceNodes),
			WSDL:     xml,
		})
		if err != nil {
			return E15SimResult{}, err
		}
		s.svcKey[i] = key
	}

	// One discovery cache per hnode over its fabric-charged lookup.
	s.looks = make([]*e15Lookup, cfg.Hnodes)
	s.cache = make([]*registry.Cache, cfg.Hnodes)
	for i := range s.looks {
		s.looks[i] = &e15Lookup{net: s.net, reg: s.reg, from: e15HnName(i)}
		s.cache[i] = registry.NewCacheWithClock(s.looks[i], cfg.CacheTTL, vclock)
	}

	s.net.ResetStats()
	s.lats = make([]time.Duration, 0, cfg.Clients*cfg.OpsPerClient)

	// Client starts stagger uniformly over the first second; churn begins
	// once the population is fully ramped.
	opsLeft := make([]int32, cfg.Clients)
	s.events = make(e15Heap, 0, cfg.Clients+8)
	for c := 0; c < cfg.Clients; c++ {
		opsLeft[c] = int32(cfg.OpsPerClient)
		start := time.Second * time.Duration(c) / time.Duration(cfg.Clients)
		s.events = append(s.events, e15Event{at: start, client: c})
	}
	heap.Init(&s.events)
	s.events.add(e15Event{at: 900 * time.Millisecond, client: e15EvKillSn, arg: 0})
	s.events.add(e15Event{at: 1100 * time.Millisecond, client: e15EvKillHn, arg: 0})

	remaining := cfg.Clients * cfg.OpsPerClient
	const (
		snKillEvery = 1200 * time.Millisecond
		snDownFor   = 400 * time.Millisecond
		hnKillEvery = 1500 * time.Millisecond
		hnDownFor   = 500 * time.Millisecond
	)
	for remaining > 0 {
		ev := s.events.next()
		if ev.at > s.vnow {
			s.vnow = ev.at
		}
		switch {
		case ev.client >= 0:
			c := ev.client
			lat := s.clientOp(c)
			opsLeft[c]--
			remaining--
			if opsLeft[c] > 0 {
				var next time.Duration
				if c%4 == 0 {
					// Open loop: fixed arrival schedule, backlog be damned.
					next = ev.at + 50*time.Millisecond
				} else {
					// Closed loop: completion + think time.
					think := 20*time.Millisecond + time.Duration(s.rng.Int63n(int64(10*time.Millisecond)))
					next = s.vnow + lat + think
				}
				s.events.add(e15Event{at: next, client: c})
			}
		case ev.client == e15EvKillSn:
			i := ev.arg % cfg.ServiceNodes
			if !s.snDown[i] {
				s.snDown[i] = true
				s.net.RemoveNode(e15SnName(i))
				// The node's hottest service dies with it: resolutions go
				// authoritative-miss and land in the negative cache.
				if s.svcKey[i] != "" {
					_ = s.reg.Remove(s.svcKey[i])
					s.svcKey[i] = ""
				}
				s.events.add(e15Event{at: ev.at + snDownFor, client: e15EvReviveSn, arg: i})
			}
			s.events.add(e15Event{at: ev.at + snKillEvery, client: e15EvKillSn, arg: (ev.arg + 1) % cfg.ServiceNodes})
		case ev.client == e15EvReviveSn:
			i := ev.arg
			s.snDown[i] = false
			s.net.AddNode(e15SnName(i))
			if key, err := s.reg.Publish(registry.Entry{
				Name:     e15SvcName(i),
				Key:      e15SvcName(i) + "::k",
				Business: e15SnName(i % cfg.ServiceNodes),
				WSDL:     xml,
			}); err == nil {
				s.svcKey[i] = key
			}
		case ev.client == e15EvKillHn:
			// Coherency-membership churn: the member leaves cleanly (the
			// fabric between hnodes is healthy, so the leave broadcast is
			// deterministic) and rejoins after a downtime.
			i := ev.arg % cfg.Hnodes
			if _, err := s.coh.RemoveNode(e15HnName(i)); err == nil {
				s.events.add(e15Event{at: ev.at + hnDownFor, client: e15EvReviveHn, arg: i})
			}
			s.events.add(e15Event{at: ev.at + hnKillEvery, client: e15EvKillHn, arg: (ev.arg + 1) % cfg.Hnodes})
		case ev.client == e15EvReviveHn:
			if _, err := s.coh.AddNode(e15HnName(ev.arg)); err == nil {
				hn := e15HnName(ev.arg)
				_, _ = s.coh.Apply(hn, dvm.Event{Kind: dvm.ServiceAdd, Node: hn, Entry: seedEntry(hn, 0)})
			}
		}
	}

	st := s.net.Stats()
	s.res.FabricMessages = st.Messages
	s.res.FabricBytes = st.Bytes
	s.res.FabricDrops = st.Drops
	s.res.VirtualElapsed = s.vnow
	s.res.P50, s.res.P99 = percentiles(s.lats)
	return s.res, nil
}

// clientOp runs one operation for client c and returns its modelled
// latency (also recorded).
func (s *e15Sim) clientOp(c int) time.Duration {
	hn := c % s.cfg.Hnodes
	var lat time.Duration
	var ok bool
	switch draw := s.rng.Float64(); {
	case draw < 0.70:
		s.res.Invokes++
		name := e15SvcName(s.zipf.Next())
		lat, ok = s.withRetries(func() (time.Duration, error) { return s.invoke(hn, name) })
	case draw < 0.90:
		s.res.Discoveries++
		name := e15SvcName(s.zipf.Next())
		lat, ok = s.withRetries(func() (time.Duration, error) {
			d, _, err := s.resolve(hn, name)
			return d, err
		})
	default:
		s.res.DVMOps++
		update := s.rng.Float64() < 0.3
		lat, ok = s.withRetries(func() (time.Duration, error) {
			node := e15HnName(hn)
			if update {
				// Updates cycle a bounded per-node instance space:
				// ServiceAdd overwrites by entry key, so the coherency
				// store models a live service table of fixed size rather
				// than an append-only log — without the bound, every
				// query sorts an ever-growing store and the sim turns
				// O(ops²).
				s.seq = (s.seq + 1) % e15DVMInstances
				return s.coh.Apply(node, dvm.Event{Kind: dvm.ServiceAdd, Node: node,
					Entry: seedEntry(node, s.seq)})
			}
			_, d, err := s.coh.Query(node, dvm.Query{Service: "Echo"})
			return d, err
		})
	}
	s.res.Ops++
	if ok {
		s.res.Succeeded++
	} else {
		s.res.Failed++
	}
	s.lats = append(s.lats, lat)
	return lat
}

// resolve runs one discovery through hnode hn's cache, counting hits and
// charging cache misses to the fabric.
func (s *e15Sim) resolve(hn int, name string) (time.Duration, []registry.Entry, error) {
	lk := s.looks[hn]
	lk.cost = 0
	before := lk.fetches
	entries, err := s.cache[hn].FindByNameErr(name)
	if lk.fetches == before {
		s.res.CacheHits++
	} else {
		s.res.CacheMisses++
	}
	return lk.cost, entries, err
}

// invoke resolves name and charges one invocation round trip to the
// entry's home node.
func (s *e15Sim) invoke(hn int, name string) (time.Duration, error) {
	d, entries, err := s.resolve(hn, name)
	if err != nil {
		return d, err
	}
	if len(entries) == 0 {
		return d, fmt.Errorf("bench: e15 service %s unregistered", name)
	}
	rtt, err := s.net.RTT(e15HnName(hn), entries[0].Business, 256, 256)
	return d + rtt, err
}

// withRetries applies the run's resilience policy to one operation:
// every attempt's modelled cost counts, plus an exponential backoff per
// retry. It reports the total latency and whether the op succeeded.
func (s *e15Sim) withRetries(op func() (time.Duration, error)) (time.Duration, bool) {
	var total time.Duration
	for a := 0; a < s.attempts; a++ {
		d, err := op()
		total += d
		if err == nil {
			return total, true
		}
		if a+1 < s.attempts {
			s.res.Retried++
			total += time.Millisecond << a
		}
	}
	return total, false
}

// --- real-socket mode --------------------------------------------------------

// e15RealResult is the measured outcome of the socket mode.
type e15RealResult struct {
	Clients, Calls    int
	Succeeded, Failed uint64
	Wall              time.Duration
	P50, P99          time.Duration
}

// e15Real drives clients goroutine clients, each resolving Zipf-hot names
// through one shared discovery cache and invoking over multiplexed XDR
// against two live hosts; host B dies at 40% progress and its clients
// fail over to host A.
func e15Real(clients, callsPerClient, services int) (*e15RealResult, error) {
	reg := registry.New()
	xml, err := e17WSDL()
	if err != nil {
		return nil, err
	}
	for i := 0; i < services; i++ {
		if _, err := reg.Publish(registry.Entry{
			Name: e15SvcName(i), Key: e15SvcName(i) + "::k", WSDL: xml,
		}); err != nil {
			return nil, err
		}
	}
	cache := registry.NewCache(reg, time.Minute)

	hostA, err := newHostWith(reg)
	if err != nil {
		return nil, err
	}
	defer hostA.close()
	hostB, err := newHostWith(reg)
	if err != nil {
		return nil, err
	}
	// hostB dies mid-run; the Once makes the kill and the cleanup path
	// agree on closing it exactly once.
	var killOnce sync.Once
	closeB := func() { killOnce.Do(func() { hostB.close() }) }
	defer closeB()
	for _, h := range []*host{hostA, hostB} {
		h.node.Container().RegisterFactory("ArraySink", arraySinkFactory())
	}
	if _, err := hostA.publish("ArraySink", "sinkA"); err != nil {
		return nil, err
	}
	if _, err := hostB.publish("ArraySink", "sinkB"); err != nil {
		return nil, err
	}
	portA := invoke.NewXDRPort(hostA.node.XDRAddr(), "sinkA", invoke.Options{})
	defer portA.Close()
	portB := invoke.NewXDRPort(hostB.node.XDRAddr(), "sinkB", invoke.Options{})
	defer portB.Close()
	ctx := context.Background()
	args := wire.Args("data", []float64{1})
	// Warm both connections outside the timer.
	if _, err := portA.Invoke(ctx, "checksum", args); err != nil {
		return nil, err
	}
	if _, err := portB.Invoke(ctx, "checksum", args); err != nil {
		return nil, err
	}

	total := clients * callsPerClient
	killAt := uint64(total * 2 / 5)
	var done, succeeded, failed atomic.Uint64
	latCh := make(chan []time.Duration, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			zipf := NewZipf(int64(c)+100, 1.1, services)
			port := portA
			if c%2 == 1 {
				port = portB
			}
			lats := make([]time.Duration, 0, callsPerClient)
			for i := 0; i < callsPerClient; i++ {
				t0 := time.Now()
				cache.FindByName(e15SvcName(zipf.Next()))
				_, err := port.Invoke(ctx, "checksum", args)
				if err != nil {
					failed.Add(1)
					// Fail over to the survivor for the rest of the run.
					port = portA
				} else {
					succeeded.Add(1)
					lats = append(lats, time.Since(t0))
				}
				if done.Add(1) == killAt {
					closeB()
				}
			}
			latCh <- lats
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	close(latCh)
	var all []time.Duration
	for ls := range latCh {
		all = append(all, ls...)
	}
	p50, p99 := percentiles(all)
	return &e15RealResult{
		Clients: clients, Calls: total,
		Succeeded: succeeded.Load(), Failed: failed.Load(),
		Wall: wall, P50: p50, P99: p99,
	}, nil
}

// --- table entry point -------------------------------------------------------

// E15Metacity runs the macro-load matrix: the three coherency strategies
// under the default retry policy, the resilience-policy sweep under the
// hybrid strategy, and the real-socket mode.
func E15Metacity(simClients, simOps, services, realClients, realCalls int) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Metacity macro-load: full stack under 10⁵–10⁶ clients (ROADMAP item 2)",
		Note: fmt.Sprintf("sim: %d virtual-time clients x %d ops, Zipf(1.1) over %d services, churn + chaos; real: %d goroutine clients over mux XDR with mid-run host kill",
			simClients, simOps, services, realClients),
		Columns: []string{"mode", "strategy", "policy", "clients", "ops",
			"ops/sec", "p50", "p99", "avail"},
	}
	base := E15SimConfig{
		Seed: 42, Clients: simClients, OpsPerClient: simOps,
		Services: services, Chaos: true,
	}
	addSim := func(res E15SimResult) {
		t.AddRow("simnet-vt", res.Strategy, res.Policy,
			FmtInt(int(base.Clients)), FmtInt(int(res.Ops)),
			FmtFloat(res.Throughput()), FmtDur(res.P50), FmtDur(res.P99),
			fmt.Sprintf("%.2f%%", 100*res.Availability()))
	}
	for _, strat := range []string{"full-sync", "decentralized", "hybrid-k4"} {
		cfg := base
		cfg.Strategy = strat
		cfg.Policy = "retry1"
		res, err := E15SimRun(cfg)
		if err != nil {
			return nil, err
		}
		addSim(res)
	}
	for _, pol := range []string{"none", "retry3"} {
		cfg := base
		cfg.Strategy = "hybrid-k4"
		cfg.Policy = pol
		res, err := E15SimRun(cfg)
		if err != nil {
			return nil, err
		}
		addSim(res)
	}

	rr, err := e15Real(realClients, realCalls, services)
	if err != nil {
		return nil, err
	}
	avail := 100 * float64(rr.Succeeded) / float64(rr.Calls)
	t.AddRow("real-socket", "xdr-mux", "failover",
		FmtInt(rr.Clients), FmtInt(rr.Calls),
		FmtFloat(float64(rr.Calls)/rr.Wall.Seconds()),
		FmtDur(rr.P50), FmtDur(rr.P99),
		fmt.Sprintf("%.2f%%", avail))
	return t, nil
}
