package invoke

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"harness2/internal/container"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
)

func benchXDRHost(b *testing.B, opts ServerOptions) *XDRServer {
	b.Helper()
	c := container.New(container.Config{Name: "bench"})
	c.RegisterFactory("MatMul", matmulImpl())
	c.RegisterFactory("Counter", counterImpl())
	if _, _, err := c.Deploy("MatMul", "mm"); err != nil {
		b.Fatal(err)
	}
	if _, _, err := c.Deploy("Counter", "c1"); err != nil {
		b.Fatal(err)
	}
	srv, err := NewXDRServer(c, "127.0.0.1:0", opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	return srv
}

// BenchmarkXDRInvokeSmall measures one small (two-int64) call on a
// single connection — the per-call frame/encode floor of the binding.
func BenchmarkXDRInvokeSmall(b *testing.B) {
	benchSmall(b, dialXDR(benchXDRHost(b, ServerOptions{}).Addr(), "c1", Options{}))
}

// BenchmarkShmInvokeSmall is the same call over the shared-memory ring.
func BenchmarkShmInvokeSmall(b *testing.B) {
	h := newLadderHost(b)
	if h.shm == nil {
		b.Skip("shm binding unsupported on this platform")
	}
	h.deploy(b, "Counter", "c1")
	p, err := NewShmPort(h.shm.Addr(), "c1")
	if err != nil {
		b.Fatal(err)
	}
	benchSmall(b, instrumentAs(p, Options{}))
}

// benchSmall times small Counter calls on p, as Dial instruments it.
func benchSmall(b *testing.B, p Port) {
	defer p.Close()
	args := wire.Args("by", int64(1))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "inc", args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXDRInvokeArray1MB measures a 1 MiB []float64 echo through the
// full client+server path: the numeric-array bulk encode/decode fast
// path plus frame-buffer pooling.
func BenchmarkXDRInvokeArray1MB(b *testing.B) {
	srv := benchXDRHost(b, ServerOptions{})
	p := dialXDR(srv.Addr(), "mm", Options{})
	defer p.Close()
	n := 1 << 17 // 128k doubles = 1 MiB
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	args := wire.Args("mata", data, "matb", data)
	ctx := context.Background()
	b.SetBytes(int64(8 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "getResult", args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXDRInvokeArray64K is the benchmark's xdr-array call as a
// microbenchmark: 8192 doubles each way through client, server and a
// component that allocates its output. B/op is the number the allocation
// gate above bounds.
func BenchmarkXDRInvokeArray64K(b *testing.B) {
	c := container.New(container.Config{Name: "bench"})
	c.RegisterFactory("Scale", scaleImpl())
	if _, _, err := c.Deploy("Scale", "s1"); err != nil {
		b.Fatal(err)
	}
	srv, err := NewXDRServer(c, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	p := dialXDR(srv.Addr(), "s1", Options{})
	defer p.Close()
	const n = 8192
	args := wire.Args("factor", 1.5, "data", randDoubles(rand.New(rand.NewSource(1)), n))
	ctx := context.Background()
	b.SetBytes(2 * 8 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "scale", args); err != nil {
			b.Fatal(err)
		}
	}
}

// benchXDRConcurrent drives `clients` goroutines over one shared port and
// reports writes/op: the flushes and vectored writes both ends made per
// call, read off the flush-batch histograms of a private registry.
func benchXDRConcurrent(b *testing.B, clients int) {
	reg := telemetry.New()
	srv := benchXDRHost(b, ServerOptions{Telemetry: reg})
	p := dialXDR(srv.Addr(), "c1", Options{Telemetry: reg})
	defer p.Close()
	args := wire.Args("by", int64(1))
	ctx := context.Background()
	if _, err := p.Invoke(ctx, "inc", args); err != nil { // dial outside the timed loop
		b.Fatal(err)
	}
	writes := func() uint64 {
		return reg.Histogram("harness_xdr_mux_flush_batch_bytes", "role", "client").Count() +
			reg.Histogram("harness_xdr_mux_flush_batch_bytes", "role", "server").Count()
	}
	before := writes()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / clients
	if per == 0 {
		per = 1
	}
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := p.Invoke(ctx, "inc", args); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(writes()-before)/float64(per*clients), "writes/op")
}

// BenchmarkXDRInvokeConcurrent is the E11 companion: aggregate
// throughput of one shared port under concurrent callers. The port
// pipelines calls and batches frames per syscall, so ns/op and writes/op
// fall as concurrency grows. clients=2 is the benchmark's own caller
// count (numCallers in benchmark/stack.go).
func BenchmarkXDRInvokeConcurrent(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 16, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchXDRConcurrent(b, clients)
		})
	}
}
