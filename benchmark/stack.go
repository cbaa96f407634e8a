package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"harness2/internal/core"
	"harness2/internal/invoke"
	"harness2/internal/registry"
	"harness2/internal/registry/cluster"
	"harness2/internal/soap"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
	"harness2/internal/xdr"
)

const (
	// numCallers is the closed-loop population: HPC callers and lookup
	// clients each wait for their reply, and the sandbox has two cores.
	numCallers = 2
	// standing is the registry population the lookup workloads search.
	standing = 10_000
	// ownPool is how many leased registrations of its own a churn caller
	// holds; publishes and removes alternate around it.
	ownPool = 32
	// warmOps is the fixed number of operations each caller runs inside
	// set-up, so that connections, pools and lazily built state exist
	// before the first window and setup_s counts the same work every time.
	warmOps = 200

	churnLease = 30 * time.Second
)

var ctx = context.Background()

// caller is one closed-loop client: op performs its next operation,
// checks the reply, and records layer spans into tr when tr is not nil.
type caller interface {
	op(tr *tracer) error
}

// stack is one workload stood up and warm: its callers, the isolated
// probes on its payloads, and what tears it down.
type stack struct {
	callers []caller
	// probes maps a per-layer metric to a function doing that layer's
	// share of one operation, single-threaded and with nothing else
	// running. Layers the workload does not touch have no entry.
	probes map[string]func() error
	// codec names the probe whose time is the codec share of invoke.call.
	codec string
	// wireBytes is the computed payload moved per operation, both
	// directions, before frame or HTTP headers and before compression.
	wireBytes float64
	closers   []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// workload names one stack and why the benchmark has it.
type workload struct {
	name string
	why  string
	// setup stands the workload up into s; what it starts it appends to
	// s.closers, so a failed set-up is torn down like a finished one.
	setup func(s *stack, seed int64) error
}

var workloads = []workload{
	{"xdr-small", "warm HPC path, one double per call: all time is invoke's per-message cost; codec, SOAP and registry are bypassed",
		func(s *stack, seed int64) error { return setupInvoke(s, seed, wsdl.BindXDR, "echo1") }},
	{"xdr-array", "same path with 64 KiB of random doubles each way: the xdr codec, frame writes and copies dominate",
		func(s *stack, seed int64) error { return setupInvoke(s, seed, wsdl.BindXDR, "scale") }},
	{"shm-small", "one double per call over the shared-memory ring: shows what code shared with the XDR server costs the ring rung",
		func(s *stack, seed int64) error { return setupInvoke(s, seed, wsdl.BindShm, "echo1") }},
	{"ws-loop", "the paper's uncached find, parse, dial, invoke, close loop over stock SOAP and a 10k-entry registry; xdr and shm bypassed",
		setupWSLoop},
	{"registry-churn", "40% find, 60% leased publish, renew, remove on a 3-peer R=2 registry cluster: the write plane beside the read plane",
		setupChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// listen opens a fresh loopback port; its URL is known before anything
// answers on it, which the cluster peers need to name one another.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serve answers on ln with h until close, which returns once the server
// goroutine has exited.
func (s *stack) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed from the closer below
	}()
	s.closers = append(s.closers, func() {
		_ = srv.Close()
		<-done
	})
}

// registryServer serves a fresh single-node registry the way hregistry
// does by default: SOAP over HTTP with response gzip on.
func (s *stack) registryServer() (*registry.Registry, *registry.Remote, error) {
	reg := registry.New()
	for _, tm := range registry.WellKnownTModels() {
		if err := reg.PublishTModel(tm); err != nil {
			return nil, nil, err
		}
	}
	ln, url, err := listen()
	if err != nil {
		return nil, nil, err
	}
	s.serve(ln, soap.Gzip(registry.NewServer(reg)))
	return reg, registry.NewRemote(url), nil
}

// echoNode starts a node with hnode's default options, deploys BenchEcho
// and publishes it through lookup.
func (s *stack) echoNode(lookup registry.Lookup) (*core.Node, error) {
	fw := core.NewFramework(lookup)
	s.closers = append(s.closers, fw.Close)
	node, err := fw.AddNode("bench-node", core.NodeOptions{})
	if err != nil {
		return nil, err
	}
	node.Container().RegisterFactory(echoClass, echoFactory())
	if _, _, err := fw.DeployAndPublish(node.Name(), echoClass, echoInstance); err != nil {
		return nil, err
	}
	return node, nil
}

// warm runs the fixed warm-up of set-up; any failure fails the set-up.
func (s *stack) warm() error {
	for _, c := range s.callers {
		for i := 0; i < warmOps; i++ {
			if err := c.op(nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

func callerRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
}

func stdName(i int) string { return fmt.Sprintf("std-%05d", i) }

// only returns the Forbid list that leaves keep as the one usable binding.
func only(keep wsdl.BindingKind) []wsdl.BindingKind {
	var out []wsdl.BindingKind
	for _, k := range []wsdl.BindingKind{wsdl.BindJavaObject, wsdl.BindShm, wsdl.BindXDR, wsdl.BindSOAP, wsdl.BindHTTP} {
		if k != keep {
			out = append(out, k)
		}
	}
	return out
}

// ---- xdr-small, xdr-array, shm-small -----------------------------------

// invokeCaller is a warm HPC caller: the shared Binder already holds the
// port, so an operation is a binder hit plus one Invoke.
type invokeCaller struct {
	binder *invoke.Binder
	opName string
	inputs []echoInput
	n      int
}

func (c *invokeCaller) op(tr *tracer) error {
	in := &c.inputs[c.n%len(c.inputs)]
	c.n++
	root := tr.begin(-1, spanOp)
	s := tr.begin(root, spanInvokeBind)
	port, err := c.binder.Port(echoClass)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(root, spanInvokeCall)
	out, err := port.Invoke(ctx, c.opName, in.args)
	tr.end(s)
	tr.end(root)
	if err != nil {
		c.binder.Invalidate(echoClass) // as Binder.Invoke does: the next call rebinds
		return err
	}
	return in.check(out)
}

func setupInvoke(s *stack, seed int64, kind wsdl.BindingKind, opName string) error {
	s.codec = "xdr.codec_us"
	_, remote, err := s.registryServer()
	if err != nil {
		return err
	}
	// The binder is made, and so closed, on the far side of the node: when
	// the node closes first, ShmServer.Close removes the segment file from
	// /dev/shm itself. Were the client to hang up first, a server goroutine
	// nothing waits for would remove it, and twice in a hundred runs this
	// process had exited before it did.
	binder := &invoke.Binder{
		Lookup: registry.NewCache(remote, time.Minute),
		Opts:   invoke.Options{Forbid: only(kind)},
		TTL:    time.Minute,
	}
	s.closers = append(s.closers, func() { _ = binder.Close() })
	node, err := s.echoNode(remote)
	if err != nil {
		return err
	}
	port, err := binder.Port(echoClass)
	if err != nil {
		return fmt.Errorf("binding %s over %v: %w", echoClass, kind, err)
	}
	if port.Kind() != kind {
		return fmt.Errorf("bound %v, want %v", port.Kind(), kind)
	}
	for c := 0; c < numCallers; c++ {
		s.callers = append(s.callers, &invokeCaller{
			binder: binder, opName: opName, inputs: echoInputs(callerRand(seed, c), opName),
		})
	}

	sample := s.callers[0].(*invokeCaller).inputs[0]
	reply, err := node.Container().Invoke(ctx, echoInstance, opName, sample.args)
	if err != nil {
		return err
	}
	s.probes["xdr.codec_us"] = xdrCodecProbe(sample.args, reply)
	s.probes["container.dispatch_us"] = dispatchProbe(node, opName, sample.args)
	if s.wireBytes, err = xdrWireBytes(opName, sample.args, reply); err != nil {
		return err
	}
	return nil
}

func values(args []wire.Arg) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a.Value
	}
	return out
}

// xdrCodecProbe encodes and decodes one request and one response.
func xdrCodecProbe(args, reply []wire.Arg) func() error {
	req, resp := values(args), values(reply)
	e := xdr.NewEncoder(2 * 8 * scaleLen)
	round := func(vs []any) error {
		e.Reset()
		if err := xdr.EncodeValues(e, vs); err != nil {
			return err
		}
		_, err := xdr.DecodeValues(xdr.NewDecoder(e.Bytes()))
		return err
	}
	return func() error {
		if err := round(req); err != nil {
			return err
		}
		return round(resp)
	}
}

func dispatchProbe(node *core.Node, opName string, args []wire.Arg) func() error {
	return func() error {
		_, err := node.Container().Invoke(ctx, echoInstance, opName, args)
		return err
	}
}

// xdrWireBytes computes the record payloads of one call as invoke lays
// them out for both the XDR socket and the shm ring (instance, op, then
// name and value per argument; status, then name and value per result),
// plus one v3 frame header each way.
func xdrWireBytes(opName string, args, reply []wire.Arg) (float64, error) {
	e := xdr.NewEncoder(0)
	e.String(echoInstance)
	e.String(opName)
	e.Uint32(uint32(len(args)))
	e.Uint32(0)
	e.Uint32(uint32(len(reply)))
	for _, a := range append(append([]wire.Arg{}, args...), reply...) {
		e.String(a.Name)
		if err := xdr.EncodeValue(e, a.Value); err != nil {
			return 0, err
		}
	}
	return float64(e.Len() + 2*xdr.FrameHeaderLenV3), nil
}

// ---- ws-loop -----------------------------------------------------------

// wsCaller runs the paper's Figure 3/4 loop with nothing cached: every
// operation finds a seeded-uniform name in the registry, parses the WSDL
// it gets back, dials the SOAP port, invokes, and closes.
type wsCaller struct {
	remote *registry.Remote
	rng    *rand.Rand
	opts   invoke.Options
	inputs []echoInput
	n      int
}

func (c *wsCaller) op(tr *tracer) error {
	in := &c.inputs[c.n%len(c.inputs)]
	c.n++
	name := stdName(c.rng.Intn(standing))
	root := tr.begin(-1, spanOp)
	s := tr.begin(root, spanRegistryFind)
	entries, err := c.remote.FindByNameErr(name)
	tr.end(s)
	if err != nil {
		return err
	}
	if len(entries) != 1 || entries[0].Name != name {
		return fmt.Errorf("find %s: got %d entries", name, len(entries))
	}
	s = tr.begin(root, spanWSDLParse)
	defs, err := wsdl.ParseString(entries[0].WSDL)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(root, spanInvokeDial)
	port, err := invoke.Dial(defs, c.opts)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(root, spanInvokeCall)
	out, err := port.Invoke(ctx, "echo1k", in.args)
	tr.end(s)
	cerr := port.Close()
	tr.end(root)
	if err = errors.Join(err, cerr); err != nil {
		return err
	}
	return in.check(out)
}

func setupWSLoop(s *stack, seed int64) error {
	s.codec = "soap.codec_us"
	reg, remote, err := s.registryServer()
	if err != nil {
		return err
	}
	node, err := s.echoNode(remote)
	if err != nil {
		return err
	}
	// Every standing name carries the live BenchEcho description, so
	// whichever name a caller draws resolves to an endpoint it can invoke.
	doc, err := node.Container().WSDLDocument(echoInstance)
	if err != nil {
		return err
	}
	if err := fillStanding(doc, func(e registry.Entry) error { _, err := reg.Publish(e); return err }); err != nil {
		return err
	}
	for c := 0; c < numCallers; c++ {
		r := callerRand(seed, c)
		s.callers = append(s.callers, &wsCaller{
			remote: remote, rng: r, inputs: echoInputs(r, "echo1k"),
			opts: invoke.Options{Forbid: only(wsdl.BindSOAP)},
		})
	}

	sample := s.callers[0].(*wsCaller).inputs[0]
	call, reply := soapCall("echo1k", sample.args), soapParams(sample.args)
	find := &soap.Call{Method: "findByName", Params: []soap.Param{{Name: "arg", Value: stdName(0)}}}
	found := registry.MarshalEntries(reg.FindByName(stdName(0)))
	s.probes["soap.codec_us"] = soapCodecProbe(call, reply)
	s.probes["container.dispatch_us"] = dispatchProbe(node, "echo1k", sample.args)
	probeRng := callerRand(seed, numCallers)
	s.probes["registry.store_us"] = func() error {
		if len(reg.FindByName(stdName(probeRng.Intn(standing)))) != 1 {
			return errors.New("store probe: name not found")
		}
		return nil
	}
	a, err := soapWireBytes(find, found)
	if err != nil {
		return err
	}
	b, err := soapWireBytes(call, reply)
	if err != nil {
		return err
	}
	s.wireBytes = a + b
	return nil
}

// fillStanding publishes the standing population through publish.
func fillStanding(doc string, publish func(registry.Entry) error) error {
	for i := 0; i < standing; i++ {
		name := stdName(i)
		if err := publish(registry.Entry{Key: name + "::std", Business: "benchmark", Name: name, WSDL: doc}); err != nil {
			return fmt.Errorf("filling registry: %w", err)
		}
	}
	return nil
}

func soapParams(args []wire.Arg) []soap.Param {
	out := make([]soap.Param, len(args))
	for i, a := range args {
		out[i] = soap.Param{Name: a.Name, Value: a.Value}
	}
	return out
}

func soapCall(method string, args []wire.Arg) *soap.Call {
	return &soap.Call{Method: method, Params: soapParams(args)}
}

// soapCodecProbe encodes and decodes one call envelope and one response
// envelope with the default codec, as client and server each do once.
func soapCodecProbe(call *soap.Call, reply []soap.Param) func() error {
	var codec soap.Codec
	var buf []byte
	return func() error {
		var err error
		if buf, err = codec.AppendCall(buf[:0], call); err != nil {
			return err
		}
		if _, err = codec.DecodeCall(buf); err != nil {
			return err
		}
		if buf, err = codec.AppendResponse(buf[:0], call.Method, reply); err != nil {
			return err
		}
		_, err = codec.DecodeResponse(buf)
		return err
	}
}

func soapWireBytes(call *soap.Call, reply []soap.Param) (float64, error) {
	var codec soap.Codec
	req, err := codec.AppendCall(nil, call)
	if err != nil {
		return 0, err
	}
	resp, err := codec.AppendResponse(nil, call.Method, reply)
	if err != nil {
		return 0, err
	}
	return float64(len(req) + len(resp)), nil
}

// ---- registry-churn ----------------------------------------------------

// leasedRegistry is what a churn caller needs; the cluster Router and the
// in-process Registry (the store probe) both provide it.
type leasedRegistry interface {
	registry.LeaseHolder
	FindByNameErr(name string) ([]registry.Entry, error)
	Remove(key string) error
}

const (
	churnFind = iota
	churnPublish
	churnRenew
	churnRemove
)

// churnBlock is the op mix, 40/20/20/20. Each caller shuffles it block by
// block, so the mix is exact and its own population stays within two of
// ownPool: a remove always has a key to remove and a renew a live lease.
var churnBlock = []int{
	churnFind, churnFind, churnFind, churnFind,
	churnPublish, churnPublish, churnRenew, churnRenew, churnRemove, churnRemove,
}

type churnCaller struct {
	reg   leasedRegistry
	rng   *rand.Rand
	id    int
	doc   string
	block []int
	n     int
	seq   int
	own   []string // live keys, oldest first
}

func (c *churnCaller) publish() error {
	c.seq++
	key, err := c.reg.PublishLeased(registry.Entry{
		Business: "benchmark", Name: fmt.Sprintf("own-%d-%d", c.id, c.seq), WSDL: c.doc,
	}, churnLease)
	if err != nil {
		return err
	}
	if key == "" {
		return errors.New("publish returned no key")
	}
	c.own = append(c.own, key)
	return nil
}

func (c *churnCaller) op(tr *tracer) error {
	i := c.n % len(c.block)
	if i == 0 {
		c.rng.Shuffle(len(c.block), func(a, b int) { c.block[a], c.block[b] = c.block[b], c.block[a] })
	}
	c.n++
	root := tr.begin(-1, spanOp)
	var err error
	switch c.block[i] {
	case churnFind:
		name := stdName(c.rng.Intn(standing))
		s := tr.begin(root, spanRegistryFind)
		var entries []registry.Entry
		entries, err = c.reg.FindByNameErr(name)
		tr.end(s)
		if err == nil && (len(entries) != 1 || entries[0].Name != name) {
			err = fmt.Errorf("find %s: got %d entries", name, len(entries))
		}
	case churnPublish:
		s := tr.begin(root, spanRegistryWrite)
		err = c.publish()
		tr.end(s)
	case churnRenew:
		key := c.own[c.rng.Intn(len(c.own))]
		s := tr.begin(root, spanRegistryWrite)
		err = c.reg.Renew(key)
		tr.end(s)
	case churnRemove:
		key := c.own[0]
		c.own = c.own[1:]
		s := tr.begin(root, spanRegistryWrite)
		err = c.reg.Remove(key)
		tr.end(s)
	}
	tr.end(root)
	return err
}

func newChurnCaller(reg leasedRegistry, seed int64, id int, doc string) (*churnCaller, error) {
	c := &churnCaller{reg: reg, rng: callerRand(seed, id), id: id, doc: doc,
		block: append([]int(nil), churnBlock...)}
	for len(c.own) < ownPool {
		if err := c.publish(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func setupChurn(s *stack, seed int64) error {
	s.codec = "soap.codec_us"
	defs, err := wsdl.Generate(echoSpec(), wsdl.EndpointSet{SOAPAddress: "http://127.0.0.1:1/services/" + echoInstance})
	if err != nil {
		return err
	}
	doc := defs.String()

	// Three peers, two copies of every entry, wired as `hregistry -peers`
	// wires them: SOAP over loopback HTTP for clients and peers alike.
	const peers, replicas = 3, 2
	nodes := make([]*cluster.Node, peers)
	listeners := make([]net.Listener, peers)
	urls := make([]string, peers)
	seedPeers := make([]cluster.PeerState, peers)
	for i := range nodes {
		if listeners[i], urls[i], err = listen(); err != nil {
			return err
		}
		s.closers = append(s.closers, func() { _ = listeners[i].Close() }) // harmless after serve took it
		seedPeers[i] = cluster.PeerState{ID: fmt.Sprintf("peer%d", i+1), Addr: urls[i]}
	}
	for i := range nodes {
		nodes[i] = cluster.NewNode(cluster.Config{
			ID: seedPeers[i].ID, Addr: urls[i], Seed: seedPeers,
			Replicas: replicas, Caller: &cluster.HTTPCaller{},
		})
		s.serve(listeners[i], soap.Gzip(cluster.NewServer(nodes[i])))
	}
	s.gossip(nodes)

	// The standing population goes straight into each owner's store: it is
	// there before any client arrives, and publishing 10⁴ entries through
	// the replicating write path would make set-up mostly that.
	err = fillStanding(doc, func(e registry.Entry) error {
		for _, n := range nodes {
			if n.IsLocalOwner(e.Name) {
				if _, err := n.Store().Publish(e); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	router := cluster.NewRouter(urls...)
	for c := 0; c < numCallers; c++ {
		cc, err := newChurnCaller(router, seed, c, doc)
		if err != nil {
			return err
		}
		s.callers = append(s.callers, cc)
	}

	// The store probe runs the same mix against one in-process registry
	// holding the same population: what the ops cost with no cluster, no
	// SOAP and no sockets around them.
	store := registry.New()
	if err := fillStanding(doc, func(e registry.Entry) error { _, err := store.Publish(e); return err }); err != nil {
		return err
	}
	storeCaller, err := newChurnCaller(store, seed, numCallers, doc)
	if err != nil {
		return err
	}
	s.probes["registry.store_us"] = func() error { return storeCaller.op(nil) }

	find := &soap.Call{Method: "findByName", Params: []soap.Param{{Name: "arg", Value: stdName(0)}}}
	found := registry.MarshalEntries(store.FindByName(stdName(0)))
	s.probes["soap.codec_us"] = soapCodecProbe(find, found)
	if s.wireBytes, err = churnWireBytes(find, found, doc); err != nil {
		return err
	}
	return nil
}

// gossip steps every node at hregistry's default interval until close.
func (s *stack) gossip(nodes []*cluster.Node) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, n := range nodes {
					n.Step(ctx)
				}
			}
		}
	}()
	s.closers = append(s.closers, func() {
		close(stop)
		<-done
	})
}

// churnWireBytes weights the client-side envelopes of each op by the mix.
// Forwarding and replication between peers are not in it.
func churnWireBytes(find *soap.Call, found []soap.Param, doc string) (float64, error) {
	// MarshalEntry carries the same fields a publishLeased call does.
	e := registry.Entry{Key: "own-0-1::peer1-1", Business: "benchmark", Name: "own-0-1", WSDL: doc,
		LeaseRemaining: churnLease}
	key := []soap.Param{{Name: "key", Value: e.Key}}
	ok := []soap.Param{{Name: "ok", Value: true}}
	publish := &soap.Call{Method: "publishLeased", Params: registry.MarshalEntry(e)}
	var total float64
	for _, m := range []struct {
		share float64
		call  *soap.Call
		reply []soap.Param
	}{
		{0.4, find, found},
		{0.2, publish, key},
		{0.2, &soap.Call{Method: "renew", Params: key}, ok},
		{0.2, &soap.Call{Method: "remove", Params: key}, ok},
	} {
		n, err := soapWireBytes(m.call, m.reply)
		if err != nil {
			return 0, err
		}
		total += m.share * n
	}
	return total, nil
}
