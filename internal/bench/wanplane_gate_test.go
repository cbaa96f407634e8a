package bench

import (
	"context"
	"os"
	"testing"
	"time"

	"harness2/internal/container"
	"harness2/internal/invoke"
	"harness2/internal/simnet"
	"harness2/internal/wire"
)

// TestE19Gate is the CI regression gate over the S33 WAN data plane. It
// only runs when E19_GATE=1 (CI exports it); the floors sit far below
// the locally measured margin: adaptive compression ≥2x over raw for a
// compressible 64 KiB array on the modelled WAN against a ~2.6x
// measurement.
func TestE19Gate(t *testing.T) {
	if os.Getenv("E19_GATE") == "" {
		t.Skip("set E19_GATE=1 to run the timing gate")
	}

	c := container.New(container.Config{Name: "e19gate"})
	c.RegisterFactory("ArraySink", arraySinkFactory())
	xs, err := invoke.NewXDRServer(c, "127.0.0.1:0",
		invoke.ServerOptions{Compress: invoke.CompressPolicy{Mode: invoke.CompressAdaptive}})
	if err != nil {
		t.Fatal(err)
	}
	defer xs.Close()
	if _, _, err := c.Deploy("ArraySink", "sink"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	measure := func(addr string, pol invoke.CompressPolicy, data []float64, calls int) time.Duration {
		p := invoke.NewXDRPort(addr, "sink")
		defer p.Close()
		p.SetCompression(pol)
		args := wire.Args("data", data)
		call := func() {
			if _, err := p.Invoke(ctx, "checksum", args); err != nil {
				t.Fatal(err)
			}
		}
		call() // warm: negotiate, fault in pools
		best := time.Duration(0)
		for trial := 0; trial < 3; trial++ {
			if per := timeIt(calls, call); best == 0 || per < best {
				best = per
			}
		}
		return best
	}

	// The gate: adaptive ≥2x raw on the modelled WAN for compressible
	// 64 KiB arrays. The proxy bills post-compression bytes, so this is
	// the bandwidth win, not a CPU artifact.
	data := CompressibleDoubles(8192)
	wanRun := func(pol invoke.CompressPolicy) time.Duration {
		proxy, err := simnet.NewLinkProxy(xs.Addr(), simnet.WAN)
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		return measure(proxy.Addr(), pol, data, 2)
	}
	rawPer := wanRun(invoke.CompressPolicy{Mode: invoke.CompressOff})
	adaptPer := wanRun(invoke.CompressPolicy{Mode: invoke.CompressAdaptive})
	if speedup := float64(rawPer) / float64(adaptPer); speedup < 2 {
		t.Errorf("adaptive WAN speedup %.2fx below the 2x gate (raw %v, adaptive %v)",
			speedup, rawPer, adaptPer)
	}
}
