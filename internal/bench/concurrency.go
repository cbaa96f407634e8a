package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"harness2/internal/container"
	"harness2/internal/invoke"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// arraySinkFactory builds the E11 workload component: "checksum" folds a
// float64 array into one double. The O(n) fold is far cheaper than moving
// the array across the socket, so the experiment measures transport, not
// compute.
func arraySinkFactory() container.Factory {
	return container.FuncFactory(func() *container.FuncComponent {
		return &container.FuncComponent{
			Spec: wsdl.ServiceSpec{Name: "ArraySink", Operations: []wsdl.OpSpec{{
				Name:   "checksum",
				Input:  []wsdl.ParamSpec{{Name: "data", Type: wire.KindFloat64Array}},
				Output: []wsdl.ParamSpec{{Name: "sum", Type: wire.KindFloat64}},
			}}},
			Handlers: map[string]container.OpFunc{
				"checksum": func(ctx context.Context, args []wire.Arg) ([]wire.Arg, error) {
					v, ok := wire.GetArg(args, "data")
					if !ok {
						return nil, fmt.Errorf("checksum: missing data")
					}
					data, ok := v.([]float64)
					if !ok {
						return nil, fmt.Errorf("checksum: data is %T", v)
					}
					var sum float64
					for _, x := range data {
						sum += x
					}
					return wire.Args("sum", sum), nil
				},
			},
		}
	})
}

// serialPort is the one-call-in-flight ablation: a mutex around Invoke on
// a shared port, so callers queue on the round trip the way they would on
// a connection without request IDs.
type serialPort struct {
	mu sync.Mutex
	*invoke.XDRPort
}

func (p *serialPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.XDRPort.Invoke(ctx, op, args)
}

// dialPerCallPort is the no-reuse ablation: every Invoke opens a port of
// its own, and so a connection of its own, and closes it.
type dialPerCallPort struct{ addr, instance string }

func (p dialPerCallPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	port := invoke.NewXDRPort(p.addr, p.instance, invoke.Options{})
	defer port.Close()
	return port.Invoke(ctx, op, args)
}

func (p dialPerCallPort) Kind() wsdl.BindingKind { return wsdl.BindXDR }
func (p dialPerCallPort) Endpoint() string       { return p.addr }
func (p dialPerCallPort) Close() error           { return nil }

// e11Transports lists the XDR client strategies under comparison, all
// built from the one port type.
var e11Transports = []struct {
	name string
	open func(addr, instance string) invoke.Port
}{
	{"serial", func(addr, inst string) invoke.Port {
		return &serialPort{XDRPort: invoke.NewXDRPort(addr, inst, invoke.Options{})}
	}},
	{"dial-per-call", func(addr, inst string) invoke.Port {
		return dialPerCallPort{addr, inst}
	}},
	{"mux", func(addr, inst string) invoke.Port { return invoke.NewXDRPort(addr, inst, invoke.Options{}) }},
}

// E11Concurrency measures aggregate XDR invocation throughput as client
// concurrency grows, for each transport strategy: one call in flight on
// the shared connection (serial), a connection per invocation
// (dial-per-call), and the port as it is (many calls pipelined over one
// stream, demultiplexed by request ID).
//
// The claim under test: the serial port is flat — adding callers cannot
// add throughput because the connection admits one outstanding call —
// while the multiplexed port scales aggregate calls/sec with the number
// of concurrent callers until the server's worker pool or the loopback
// saturates.
func E11Concurrency(clients []int, smallCalls, arrayLen, arrayCalls int) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "XDR aggregate throughput vs client concurrency by transport",
		Note:  "shared port, N goroutines; speedup is vs the same transport at N=1",
		Columns: []string{"payload", "transport", "clients", "calls",
			"wall", "per-call", "calls/sec", "speedup"},
	}
	h, err := newHost()
	if err != nil {
		return nil, err
	}
	defer h.close()
	h.node.Container().RegisterFactory("ArraySink", arraySinkFactory())
	if _, err := h.publish("ArraySink", "sink"); err != nil {
		return nil, err
	}
	addr := h.node.XDRAddr()
	ctx := context.Background()

	type payload struct {
		label string
		args  []wire.Arg
		calls int // per client
	}
	payloads := []payload{
		{"small (1 double)", wire.Args("data", []float64{1}), smallCalls},
		{fmt.Sprintf("array (%s)", FmtBytes(int64(8*arrayLen))),
			wire.Args("data", RandDoubles(arrayLen, 11)), arrayCalls},
	}

	for _, pl := range payloads {
		for _, tr := range e11Transports {
			var base float64 // calls/sec at clients=1 for this transport
			for _, n := range clients {
				port := tr.open(addr, "sink")
				// Warm the connection (and any pools) outside the timer.
				if _, err := port.Invoke(ctx, "checksum", pl.args); err != nil {
					_ = port.Close()
					return nil, fmt.Errorf("bench: E11 %s warmup: %w", tr.name, err)
				}
				total := n * pl.calls
				var wg sync.WaitGroup
				var firstErr error
				var errOnce sync.Once
				start := time.Now()
				for c := 0; c < n; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < pl.calls; i++ {
							if _, err := port.Invoke(ctx, "checksum", pl.args); err != nil {
								errOnce.Do(func() { firstErr = err })
								return
							}
						}
					}()
				}
				wg.Wait()
				wall := time.Since(start)
				_ = port.Close()
				if firstErr != nil {
					return nil, fmt.Errorf("bench: E11 %s/%d: %w", tr.name, n, firstErr)
				}
				rate := float64(total) / wall.Seconds()
				if base == 0 {
					base = rate
				}
				t.AddRow(pl.label, tr.name, FmtInt(n), FmtInt(total),
					FmtDur(wall), FmtDur(wall/time.Duration(total)),
					FmtFloat(rate), FmtRatio(rate/base))
			}
		}
	}
	return t, nil
}
