// Benchmark suite: one testing.B family per experiment table in
// DESIGN.md (E1–E10). `go test -bench=. -benchmem` regenerates the raw
// measurements behind EXPERIMENTS.md; `cmd/hbench` prints the same data
// as formatted tables.
package harness

import (
	"context"
	"fmt"
	"testing"
	"time"

	"harness2/internal/bench"
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
	"harness2/internal/resilience"
	"harness2/internal/resilience/chaos"
	"harness2/internal/simnet"
	"harness2/internal/soap"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
	"harness2/internal/xdr"
)

// --- E1: discovery amortization -------------------------------------------

func e1Host(b *testing.B) *core.Framework {
	b.Helper()
	fw := core.NewFramework(nil)
	node, err := fw.AddNode("bench", core.NodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	core.RegisterBuiltins(node.Container())
	if _, _, err := fw.DeployAndPublish("bench", "WSTime", "clock"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(fw.Close)
	return fw
}

func BenchmarkE1_DiscoverAndBind(b *testing.B) {
	fw := e1Host(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		defs, err := fw.Discover("WSTime")
		if err != nil || len(defs) == 0 {
			b.Fatal(err)
		}
		p, err := fw.DialRemote(defs[0])
		if err != nil {
			b.Fatal(err)
		}
		_ = p.Close()
	}
}

func BenchmarkE1_WarmInvoke(b *testing.B) {
	fw := e1Host(b)
	defs, _ := fw.Discover("WSTime")
	p, err := fw.DialRemote(defs[0])
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "getTime", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: array encodings ---------------------------------------------------

func benchEncode(b *testing.B, enc func(data []float64) int) {
	data := bench.RandDoubles(10000, 1)
	b.SetBytes(int64(8 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := enc(data); n == 0 {
			b.Fatal("empty encoding")
		}
	}
}

func BenchmarkE2_EncodeXDR(b *testing.B) {
	e := xdr.NewEncoder(90000)
	benchEncode(b, func(data []float64) int {
		e.Reset()
		if err := xdr.EncodeValue(e, data); err != nil {
			b.Fatal(err)
		}
		return e.Len()
	})
}

func soapEncodeBench(b *testing.B, arrays soap.ArrayEncoding) {
	codec := soap.Codec{Arrays: arrays}
	benchEncode(b, func(data []float64) int {
		buf, err := codec.EncodeCall(&soap.Call{Method: "m",
			Params: []soap.Param{{Name: "a", Value: data}}})
		if err != nil {
			b.Fatal(err)
		}
		return len(buf)
	})
}

func BenchmarkE2_EncodeSOAPBase64(b *testing.B)      { soapEncodeBench(b, soap.EncodeBase64) }
func BenchmarkE2_EncodeSOAPHex(b *testing.B)         { soapEncodeBench(b, soap.EncodeHex) }
func BenchmarkE2_EncodeSOAPElementwise(b *testing.B) { soapEncodeBench(b, soap.EncodeElementwise) }

func BenchmarkE2_DecodeXDR(b *testing.B) {
	data := bench.RandDoubles(10000, 1)
	e := xdr.NewEncoder(90000)
	if err := xdr.EncodeValue(e, data); err != nil {
		b.Fatal(err)
	}
	buf := e.Bytes()
	b.SetBytes(int64(8 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xdr.DecodeValue(xdr.NewDecoder(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_DecodeSOAPBase64(b *testing.B) {
	data := bench.RandDoubles(10000, 1)
	codec := soap.Codec{}
	buf, err := codec.EncodeCall(&soap.Call{Method: "m",
		Params: []soap.Param{{Name: "a", Value: data}}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeCall(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: binding latency ---------------------------------------------------

func e3Port(b *testing.B, kind wsdl.BindingKind) invoke.Port {
	b.Helper()
	fw := core.NewFramework(nil)
	node, err := fw.AddNode("bench", core.NodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	core.RegisterBuiltins(node.Container())
	if _, _, err := fw.DeployAndPublish("bench", "MatMul", "mm"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(fw.Close)
	switch kind {
	case wsdl.BindJavaObject:
		return &invoke.LocalPort{Container: node.Container(), Instance: "mm"}
	case wsdl.BindXDR:
		p := invoke.NewXDRPort(node.XDRAddr(), "mm", invoke.Options{})
		b.Cleanup(func() { _ = p.Close() })
		return p
	default:
		return &invoke.SOAPPort{URL: node.SOAPBase() + "/mm"}
	}
}

func benchMatMulVia(b *testing.B, kind wsdl.BindingKind) {
	const n = 64
	p := e3Port(b, kind)
	a := bench.RandDoubles(n*n, 1)
	bb := bench.RandDoubles(n*n, 2)
	args := wire.Args("mata", a, "matb", bb, "n", int32(n))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "getResult", args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_MatMul64_Local(b *testing.B) { benchMatMulVia(b, wsdl.BindJavaObject) }
func BenchmarkE3_MatMul64_XDR(b *testing.B)   { benchMatMulVia(b, wsdl.BindXDR) }
func BenchmarkE3_MatMul64_SOAP(b *testing.B)  { benchMatMulVia(b, wsdl.BindSOAP) }

// --- E4: deployment --------------------------------------------------------

func BenchmarkE4_DeployLightweight(b *testing.B) {
	c := container.New(container.Config{Name: "bench"})
	core.RegisterBuiltins(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Deploy("WSTime", fmt.Sprintf("w%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_DeployAndFirstRequest(b *testing.B) {
	c := container.New(container.Config{Name: "bench"})
	core.RegisterBuiltins(c)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("w%d", i)
		if _, _, err := c.Deploy("WSTime", id); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Invoke(ctx, id, "getTime", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: coherency ---------------------------------------------------------

func coherencyDomain(b *testing.B, mk func(*simnet.Network) dvm.Coherency, n int) dvm.Coherency {
	b.Helper()
	net := simnet.New(simnet.LAN)
	coh := mk(net)
	for i := 0; i < n; i++ {
		if _, err := coh.AddNode(fmt.Sprintf("n%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	// Seed one service per node so queries return work.
	for i := 0; i < n; i++ {
		node := fmt.Sprintf("n%d", i)
		if _, err := coh.Apply(node, dvm.Event{Kind: dvm.ServiceAdd, Node: node,
			Entry: dvm.ServiceEntry{Node: node, Instance: "s", Class: "Echo", Service: "Echo"}}); err != nil {
			b.Fatal(err)
		}
	}
	return coh
}

func benchCoherencyUpdate(b *testing.B, mk func(*simnet.Network) dvm.Coherency) {
	coh := coherencyDomain(b, mk, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := dvm.Event{Kind: dvm.ServiceAdd, Node: "n0",
			Entry: dvm.ServiceEntry{Node: "n0", Instance: fmt.Sprintf("i%d", i), Class: "Echo", Service: "Echo"}}
		if _, err := coh.Apply("n0", ev); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCoherencyQuery(b *testing.B, mk func(*simnet.Network) dvm.Coherency) {
	coh := coherencyDomain(b, mk, 16)
	q := dvm.Query{Service: "Echo"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coh.Query("n1", q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_FullSyncUpdate(b *testing.B) {
	benchCoherencyUpdate(b, func(n *simnet.Network) dvm.Coherency { return dvm.NewFullSync(n) })
}
func BenchmarkE5_FullSyncQuery(b *testing.B) {
	benchCoherencyQuery(b, func(n *simnet.Network) dvm.Coherency { return dvm.NewFullSync(n) })
}
func BenchmarkE5_DecentralizedUpdate(b *testing.B) {
	benchCoherencyUpdate(b, func(n *simnet.Network) dvm.Coherency { return dvm.NewDecentralized(n) })
}
func BenchmarkE5_DecentralizedQuery(b *testing.B) {
	benchCoherencyQuery(b, func(n *simnet.Network) dvm.Coherency { return dvm.NewDecentralized(n) })
}
func BenchmarkE5_HybridUpdate(b *testing.B) {
	benchCoherencyUpdate(b, func(n *simnet.Network) dvm.Coherency { return dvm.NewHybrid(n, 4) })
}
func BenchmarkE5_HybridQuery(b *testing.B) {
	benchCoherencyQuery(b, func(n *simnet.Network) dvm.Coherency { return dvm.NewHybrid(n, 4) })
}

// --- E6: lookup architectures ----------------------------------------------

func BenchmarkE6_CentralizedLookupRTT(b *testing.B) {
	net := simnet.New(simnet.LAN)
	net.AddNode("registry")
	net.AddNode("client")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.RTT("client", "registry", 128, 1500); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_DecentralizedLookup32(b *testing.B) {
	coh := coherencyDomain(b, func(n *simnet.Network) dvm.Coherency { return dvm.NewDecentralized(n) }, 32)
	q := dvm.Query{Service: "Echo"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coh.Query("n0", q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: PVM emulation -----------------------------------------------------

func benchPVMPingPong(b *testing.B, payloadDoubles int) {
	router := pvm.NewRouter(nil)
	daemons := make([]*pvm.Daemon, 2)
	for i := range daemons {
		name := fmt.Sprintf("bh%d-%d", i, payloadDoubles)
		k := kernel.New(name, container.Config{})
		k.RegisterPlugin(events.PluginClass, events.Factory())
		k.RegisterPlugin(namesvc.PluginClass, namesvc.Factory())
		k.RegisterPlugin(pvm.PluginClass, pvm.Factory(name, router),
			events.PluginClass, namesvc.PluginClass)
		if err := k.Load(pvm.PluginClass); err != nil {
			b.Fatal(err)
		}
		comp, _ := k.Plugin(pvm.PluginClass)
		daemons[i] = comp.(*pvm.Daemon)
	}
	payload := bench.RandDoubles(payloadDoubles, 3)
	daemons[0].RegisterTaskFunc("echo", func(ctx context.Context, self *pvm.Task, args []string) error {
		for {
			m, err := self.Recv(pvm.AnySrc, pvm.AnyTag)
			if err != nil {
				return nil
			}
			if m.Tag == 0 {
				return nil
			}
			if err := self.Send(m.Src, m.Tag, m.Body); err != nil {
				return err
			}
		}
	})
	echo, err := daemons[0].Spawn("echo", nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	daemons[1].RegisterTaskFunc("driver", func(ctx context.Context, self *pvm.Task, args []string) error {
		body := []wire.Arg{pvm.PkDoubleArray("d", payload)}
		for i := 0; i < b.N; i++ {
			if err := self.Send(echo[0], 1, body); err != nil {
				done <- err
				return err
			}
			if _, err := self.Recv(echo[0], 1); err != nil {
				done <- err
				return err
			}
		}
		done <- self.Send(echo[0], 0, nil)
		return nil
	})
	b.SetBytes(int64(16 * payloadDoubles))
	b.ResetTimer()
	if _, err := daemons[1].Spawn("driver", nil, 1); err != nil {
		b.Fatal(err)
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE7_PVMPingPongEmpty(b *testing.B) { benchPVMPingPong(b, 0) }
func BenchmarkE7_PVMPingPong32KiB(b *testing.B) { benchPVMPingPong(b, 4096) }

// --- E8: registry find -----------------------------------------------------

func e8Registry(b *testing.B, size int) *registry.Registry {
	b.Helper()
	reg := registry.New()
	for i := 0; i < size; i++ {
		name := fmt.Sprintf("Svc%d", i)
		defs, err := wsdl.Generate(wsdl.ServiceSpec{
			Name: name,
			Operations: []wsdl.OpSpec{{Name: "run",
				Input:  []wsdl.ParamSpec{{Name: "x", Type: wire.KindFloat64Array}},
				Output: []wsdl.ParamSpec{{Name: "y", Type: wire.KindFloat64Array}}}},
		}, wsdl.EndpointSet{SOAPAddress: "http://h/" + name})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reg.Publish(registry.Entry{Name: name, WSDL: defs.String()}); err != nil {
			b.Fatal(err)
		}
	}
	return reg
}

func BenchmarkE8_FindByName1000(b *testing.B) {
	reg := e8Registry(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := reg.FindByName("Svc500"); len(got) != 1 {
			b.Fatal("miss")
		}
	}
}

func BenchmarkE8_FindByQuery1000(b *testing.B) {
	reg := e8Registry(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := reg.FindByQuery("//service[@name='Svc500Service']")
		if err != nil || len(got) != 1 {
			b.Fatalf("miss: %v", err)
		}
	}
}

// --- E9: locality ----------------------------------------------------------

func benchLinSolveVia(b *testing.B, kind wsdl.BindingKind) {
	const n = 96
	fw := core.NewFramework(nil)
	node, err := fw.AddNode("bench", core.NodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	core.RegisterBuiltins(node.Container())
	if _, _, err := fw.DeployAndPublish("bench", "LinSolve", "lapack"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(fw.Close)
	var p invoke.Port
	switch kind {
	case wsdl.BindJavaObject:
		p = &invoke.LocalPort{Container: node.Container(), Instance: "lapack"}
	case wsdl.BindXDR:
		xp := invoke.NewXDRPort(node.XDRAddr(), "lapack", invoke.Options{})
		b.Cleanup(func() { _ = xp.Close() })
		p = xp
	default:
		p = &invoke.SOAPPort{URL: node.SOAPBase() + "/lapack"}
	}
	a := bench.RandMatrix(n, 1)
	rhs := bench.RandDoubles(n, 2)
	args := wire.Args("a", a, "b", rhs, "n", int32(n))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "solve", args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9_LinSolve96_Local(b *testing.B) { benchLinSolveVia(b, wsdl.BindJavaObject) }
func BenchmarkE9_LinSolve96_XDR(b *testing.B)   { benchLinSolveVia(b, wsdl.BindXDR) }
func BenchmarkE9_LinSolve96_SOAP(b *testing.B)  { benchLinSolveVia(b, wsdl.BindSOAP) }

// --- Plugin environments (MPI / JavaSpaces) ---------------------------------

func BenchmarkMPI_AllReduce8(b *testing.B) {
	router := pvm.NewRouter(nil)
	daemons := make([]*pvm.Daemon, 2)
	for i := range daemons {
		name := fmt.Sprintf("mb%d", i)
		k := kernel.New(name, container.Config{})
		k.RegisterPlugin(events.PluginClass, events.Factory())
		k.RegisterPlugin(namesvc.PluginClass, namesvc.Factory())
		k.RegisterPlugin(pvm.PluginClass, pvm.Factory(name, router),
			events.PluginClass, namesvc.PluginClass)
		if err := k.Load(pvm.PluginClass); err != nil {
			b.Fatal(err)
		}
		comp, _ := k.Plugin(pvm.PluginClass)
		daemons[i] = comp.(*pvm.Daemon)
	}
	world, err := mpi.NewWorld(router, daemons)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = world.Run(8, func(ctx context.Context, c *mpi.Comm) error {
		for i := 0; i < b.N; i++ {
			if _, err := c.AllReduce(mpi.OpSum, float64(c.Rank())); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkJSpaces_WriteTake(b *testing.B) {
	s := jspaces.New()
	entry := wire.NewStruct("Task").Set("name", "bench").Set("seq", int32(1))
	tmpl := wire.NewStruct("Task")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Write(entry, 0); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.TakeIfExists(tmpl); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkE4_RemoteDeployViaManager(b *testing.B) {
	// The manager component makes instantiation a remote SOAP operation:
	// this measures the full automated-deployment round trip the paper's
	// design enables (contrast with the in-process E4 numbers).
	node, err := core.NewNode("mgr-bench", core.NodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = node.Close() })
	core.RegisterBuiltins(node.Container())
	node.Container().RegisterFactory(container.ManagerClass, container.ManagerFactory())
	if _, _, err := node.Container().Deploy(container.ManagerClass, "manager"); err != nil {
		b.Fatal(err)
	}
	p := &invoke.SOAPPort{URL: node.SOAPBase() + "/manager"}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "deploy",
			wire.Args("class", "WSTime", "id", fmt.Sprintf("w%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: telemetry overhead ----------------------------------------------

// BenchmarkE12_Disabled proves the observability off-switch is free: with
// telemetry.Disabled(), every instrument is a nil handle and each hot-path
// call is a single nil-receiver branch — a few nanoseconds, zero
// allocations. This is the number that justifies leaving instrumentation
// compiled into every layer.
func BenchmarkE12_Disabled(b *testing.B) {
	reg := telemetry.Disabled()
	c := reg.Counter("bench_e12_counter")
	h := reg.Histogram("bench_e12_hist")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.ObserveSince(h.Start())
	}
}

// BenchmarkE12_Enabled is the paired measurement with live instruments:
// an atomic counter increment plus a full histogram timer (two clock
// reads and a bucketed observe).
func BenchmarkE12_Enabled(b *testing.B) {
	reg := telemetry.New()
	c := reg.Counter("bench_e12_counter")
	h := reg.Histogram("bench_e12_hist")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.ObserveSince(h.Start())
	}
}

// BenchmarkE12_InvokeDisabled / Enabled measure the end-to-end cost of the
// instrumented local dispatch path, the worst-case stack for overhead.
func BenchmarkE12_InvokeDisabled(b *testing.B) { benchE12Invoke(b, telemetry.Disabled()) }
func BenchmarkE12_InvokeEnabled(b *testing.B)  { benchE12Invoke(b, telemetry.New()) }

func benchE12Invoke(b *testing.B, reg *telemetry.Registry) {
	b.Helper()
	c := container.New(container.Config{Name: "e12bench", Telemetry: reg})
	core.RegisterBuiltins(c)
	inst, _, err := c.Deploy("WSTime", "t1")
	if err != nil {
		b.Fatal(err)
	}
	defs, err := c.WSDLFor(inst.ID)
	if err != nil {
		b.Fatal(err)
	}
	p, err := invoke.Dial(defs, invoke.Options{LocalContainers: []*container.Container{c}, Telemetry: reg})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "getTime", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: resilience plane overhead ----------------------------------------

// e13BenchPort is a minimal in-memory Port: the measurements below isolate
// the resilience plumbing (nil-policy branch, enabled policy loop, chaos
// hook) from any transport cost.
type e13BenchPort struct{ out []wire.Arg }

func (p *e13BenchPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	return p.out, nil
}
func (p *e13BenchPort) Kind() wsdl.BindingKind { return wsdl.BindXDR }
func (p *e13BenchPort) Endpoint() string       { return "bench" }
func (p *e13BenchPort) Close() error           { return nil }

func benchE13Invoke(b *testing.B, port invoke.Port) {
	b.Helper()
	ctx := context.Background()
	args := wire.Args("by", int64(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := port.Invoke(ctx, "getResult", args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13_PortBare is the baseline: the raw in-memory port.
func BenchmarkE13_PortBare(b *testing.B) {
	benchE13Invoke(b, &e13BenchPort{out: wire.Args("ok", int64(1))})
}

// BenchmarkE13_PortNilPolicy is the acceptance gate for the disabled
// path: a ResilientPort without a policy must add one branch — a few
// nanoseconds, zero allocations — over the bare port.
func BenchmarkE13_PortNilPolicy(b *testing.B) {
	p, err := invoke.NewResilientPort(nil, &e13BenchPort{out: wire.Args("ok", int64(1))})
	if err != nil {
		b.Fatal(err)
	}
	benchE13Invoke(b, p)
}

// BenchmarkE13_PortPolicyEnabled measures the full policy loop on the
// success path (budget context, breaker gate, one attempt, bookkeeping)
// with no faults injected.
func BenchmarkE13_PortPolicyEnabled(b *testing.B) {
	pol, err := resilience.New(
		resilience.WithMaxAttempts(3),
		resilience.WithBreaker(5, time.Second),
		resilience.WithTelemetry(telemetry.Disabled()),
	)
	if err != nil {
		b.Fatal(err)
	}
	p, err := invoke.NewResilientPort(pol, &e13BenchPort{out: wire.Args("ok", int64(1))})
	if err != nil {
		b.Fatal(err)
	}
	benchE13Invoke(b, p)
}

// BenchmarkE13_ChaosNilInjector is the other disabled hot path: the nil
// *chaos.Injector hook compiled into every transport.
func BenchmarkE13_ChaosNilInjector(b *testing.B) {
	var inj *chaos.Injector
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inj.Apply(ctx, "xdr", "getResult", "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13_ChaosEvalMiss prices an armed injector whose rule matches
// the site but never draws a fault (prob 0): the per-call cost of keeping
// chaos enabled in a steady-state run.
func BenchmarkE13_ChaosEvalMiss(b *testing.B) {
	inj, err := chaos.New(1, chaos.Rule{Binding: "xdr", Kind: chaos.FaultError, Prob: 0})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inj.Apply(ctx, "xdr", "getResult", "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E14: SOAP fast path and discovery cache -------------------------------

// benchE14Decode prices one packed-base64 envelope decode at n doubles.
func benchE14Decode(b *testing.B, n int, disableFast bool) {
	data := bench.RandDoubles(n, 14)
	codec := soap.Codec{Arrays: soap.EncodeBase64, DisableFastPath: disableFast}
	buf, err := codec.EncodeCall(&soap.Call{Method: "put",
		Params: []soap.Param{{Name: "vals", Value: data}}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeCall(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14_DecodeFast100k(b *testing.B) { benchE14Decode(b, 100_000, false) }
func BenchmarkE14_DecodeDOM100k(b *testing.B)  { benchE14Decode(b, 100_000, true) }
func BenchmarkE14_DecodeFast1M(b *testing.B)   { benchE14Decode(b, 1_000_000, false) }
func BenchmarkE14_DecodeDOM1M(b *testing.B)    { benchE14Decode(b, 1_000_000, true) }

// BenchmarkE14_EncodePooled prices the append-based encode path with
// pooled buffers: the steady state should be allocation-free.
func BenchmarkE14_EncodePooled(b *testing.B) {
	data := bench.RandDoubles(10000, 14)
	codec := soap.Codec{Arrays: soap.EncodeBase64}
	call := &soap.Call{Method: "put", Params: []soap.Param{{Name: "vals", Value: data}}}
	b.SetBytes(int64(8 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := soap.AcquireBuffer()
		out, err := codec.AppendCall(*buf, call)
		if err != nil {
			b.Fatal(err)
		}
		*buf = out[:0]
		soap.ReleaseBuffer(buf)
	}
}

// BenchmarkE14_CacheHit measures a warm discovery-cache probe; _CacheDisabled
// the pass-through branch a ttl=0 cache adds over its source.
func BenchmarkE14_CacheHit(b *testing.B) {
	reg := registry.New()
	key, err := reg.Publish(registry.Entry{Name: "svc", WSDL: "<definitions/>"})
	if err != nil {
		b.Fatal(err)
	}
	c := registry.NewCache(reg, time.Hour)
	c.Get(key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkE14_CacheDisabled(b *testing.B) {
	reg := registry.New()
	key, err := reg.Publish(registry.Entry{Name: "svc", WSDL: "<definitions/>"})
	if err != nil {
		b.Fatal(err)
	}
	c := registry.NewCache(reg, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}
