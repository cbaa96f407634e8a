package bench

import (
	"context"
	"fmt"
	"time"

	"harness2/internal/container"
	"harness2/internal/invoke"
	"harness2/internal/simnet"
	"harness2/internal/wire"
)

// E19WANPlane measures the negotiated data plane with adaptive per-frame
// compression (DESIGN.md S33) on links where bandwidth, not CPU, is the
// bottleneck: the same ArraySink checksum call through simnet LinkProxies
// modelling LAN and WAN pipes, with compressible and incompressible
// 64 KiB arrays under each client compression policy — the proxy bills
// post-compression bytes, so the wire/call column is exactly what a real
// bandwidth cap would meter.
func E19WANPlane(arrayLen, wanCalls int) (*Table, error) {
	t := &Table{
		ID:    "E19",
		Title: "WAN data plane: negotiated frames with adaptive compression",
		Note: fmt.Sprintf("ArraySink checksum, %s request arrays, best of three trials; wire/call is post-compression bytes through the link proxy (both directions); speedup vs the off policy on the same link and payload",
			FmtBytes(int64(8*arrayLen))),
		Columns: []string{"link", "payload", "policy", "per-op", "wire/call", "speedup"},
	}

	c := container.New(container.Config{Name: "e19"})
	c.RegisterFactory("ArraySink", arraySinkFactory())
	// The server accepts and answers with flate; clients choose per row.
	xs, err := invoke.NewXDRServer(c, "127.0.0.1:0",
		invoke.ServerOptions{Compress: invoke.CompressPolicy{Mode: invoke.CompressAdaptive}})
	if err != nil {
		return nil, err
	}
	defer xs.Close()
	if _, _, err := c.Deploy("ArraySink", "sink"); err != nil {
		return nil, err
	}
	ctx := context.Background()

	payloads := []struct {
		name string
		data []float64
	}{
		{"compressible", CompressibleDoubles(arrayLen)},
		{"random", RandDoubles(arrayLen, 19)},
	}
	policies := []struct {
		name string
		pol  invoke.CompressPolicy
	}{
		{"off", invoke.CompressPolicy{Mode: invoke.CompressOff}},
		{"on", invoke.CompressPolicy{Mode: invoke.CompressOn}},
		{"adaptive", invoke.CompressPolicy{Mode: invoke.CompressAdaptive}},
	}

	measure := func(addr string, pol invoke.CompressPolicy, data []float64, calls int) (time.Duration, error) {
		p := invoke.NewXDRPort(addr, "sink", invoke.Options{Compress: pol})
		defer p.Close()
		args := wire.Args("data", data)
		call := func() {
			if _, err := p.Invoke(ctx, "checksum", args); err != nil {
				panic(err)
			}
		}
		call() // warm: negotiate, fault in pools
		best := time.Duration(0)
		for trial := 0; trial < 3; trial++ {
			if per := timeIt(calls, call); best == 0 || per < best {
				best = per
			}
		}
		return best, nil
	}

	// Each (link, payload, policy) cell gets a fresh proxy so the
	// per-connection byte counters isolate the cell.
	links := []struct {
		name string
		cfg  simnet.LinkConfig
	}{
		{"lan", simnet.LAN},
		{"wan", simnet.WAN},
	}
	for _, link := range links {
		for _, pl := range payloads {
			var rawPer time.Duration
			for _, pc := range policies {
				proxy, err := simnet.NewLinkProxy(xs.Addr(), link.cfg)
				if err != nil {
					return nil, err
				}
				per, err := measure(proxy.Addr(), pc.pol, pl.data, wanCalls)
				if err != nil {
					proxy.Close()
					return nil, err
				}
				toB, toC := proxy.Bytes()
				proxy.Close()
				totalCalls := int64(wanCalls)*3 + 1 // three trials + warm
				wirePerCall := (toB + toC) / totalCalls
				if pc.name == "off" {
					rawPer = per
				}
				t.AddRow(link.name, pl.name, pc.name, FmtDur(per),
					FmtBytes(wirePerCall), FmtRatio(float64(rawPer)/float64(per)))
			}
		}
	}

	return t, nil
}
