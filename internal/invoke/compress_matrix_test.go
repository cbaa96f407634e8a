package invoke

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"harness2/internal/container"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
)

// TestXDRNegotiationMatrix is the capability matrix of the one wire:
// every client compression policy — off, on, adaptive, and auto resolved
// against a binding that advertises the codec — against every server
// policy. A pairing compresses exactly when both sides allow it, and no
// pairing may corrupt payloads. This is the E3 invoke check run across
// the full negotiation space.
func TestXDRNegotiationMatrix(t *testing.T) {
	advertised := &wsdl.Binding{Kind: wsdl.BindXDR,
		Capabilities: []wsdl.Capability{{Name: "compress", Value: "flate"}}}
	servers := []CompressPolicy{{Mode: CompressOff}, {Mode: CompressOn}, {Mode: CompressAdaptive}}
	clients := []struct {
		name string
		pol  CompressPolicy
	}{
		{"off", CompressPolicy{Mode: CompressOff}},
		{"on", CompressPolicy{Mode: CompressOn}},
		{"adaptive", CompressPolicy{Mode: CompressAdaptive}},
		// What openPort hands an auto-mode client of an off-host endpoint.
		{"auto-advertised", resolveCompress(CompressPolicy{}, advertised, "10.0.0.7:9000")},
	}

	// Compressible payload comfortably above the compression floor, so
	// compressing pairings actually exercise the flate path.
	mata := make([]float64, 4096)
	matb := make([]float64, 4096)
	for i := range mata {
		mata[i] = float64(i % 16)
		matb[i] = 2
	}

	for _, sp := range servers {
		sp := sp
		t.Run("server="+sp.Mode.String(), func(t *testing.T) {
			c := container.New(container.Config{Name: "node1"})
			c.RegisterFactory("MatMul", matmulImpl())
			xs, err := NewXDRServer(c, "127.0.0.1:0", ServerOptions{Compress: sp})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = xs.Close() })
			if _, _, err := c.Deploy("MatMul", "m1"); err != nil {
				t.Fatal(err)
			}
			for _, cc := range clients {
				cc := cc
				t.Run("client="+cc.name, func(t *testing.T) {
					p := NewXDRPort(xs.Addr(), "m1")
					p.SetCompression(cc.pol)
					defer p.Close()
					ctx := context.Background()
					// Several calls per pairing: the first negotiates,
					// the rest reuse the connection.
					for call := 0; call < 3; call++ {
						out, err := p.Invoke(ctx, "getResult",
							wire.Args("mata", mata, "matb", matb))
						if err != nil {
							t.Fatalf("call %d: %v", call, err)
						}
						rv, ok := wire.GetArg(out, "result")
						if !ok {
							t.Fatalf("call %d: no result", call)
						}
						res := rv.([]float64)
						if len(res) != len(mata) {
							t.Fatalf("call %d: len = %d", call, len(res))
						}
						for i := range res {
							if res[i] != mata[i]*matb[i] {
								t.Fatalf("call %d: result[%d] = %v, want %v",
									call, i, res[i], mata[i]*matb[i])
							}
						}
					}
					// The first reply followed the server's answer word, so
					// the connection's codec is settled by now.
					want := cc.pol.Mode != CompressOff && sp.Mode != CompressOff
					if got := p.mc.comp.Load() != nil; got != want {
						t.Fatalf("compressing = %v, want %v", got, want)
					}
				})
			}
		})
	}
}

// TestXDRNegotiationConcurrent drives the adaptive/adaptive pairing from
// many goroutines at once — the arrangement the race detector cares
// about: concurrent compressors, one shared muxConn, negotiation racing
// the first batch of requests.
func TestXDRNegotiationConcurrent(t *testing.T) {
	c := container.New(container.Config{Name: "node1"})
	c.RegisterFactory("MatMul", matmulImpl())
	xs, err := NewXDRServer(c, "127.0.0.1:0",
		ServerOptions{Compress: CompressPolicy{Mode: CompressAdaptive}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = xs.Close() })
	if _, _, err := c.Deploy("MatMul", "m1"); err != nil {
		t.Fatal(err)
	}
	p := NewXDRPort(xs.Addr(), "m1")
	p.SetCompression(CompressPolicy{Mode: CompressAdaptive})
	defer p.Close()

	mata := make([]float64, 2048)
	for i := range mata {
		mata[i] = float64(i % 8)
	}
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			ctx := context.Background()
			for call := 0; call < 10; call++ {
				out, err := p.Invoke(ctx, "getResult",
					wire.Args("mata", mata, "matb", mata))
				if err != nil {
					errc <- fmt.Errorf("call %d: %w", call, err)
					return
				}
				rv, _ := wire.GetArg(out, "result")
				if res := rv.([]float64); res[9] != mata[9]*mata[9] {
					errc <- fmt.Errorf("call %d: bad payload", call)
					return
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompressionMetricsExposed checks the S33 observability contract:
// compressed traffic shows up in the compress byte counters, the ratio
// histogram, and the per-codec connection gauge on both roles — and the
// gauge returns to zero when the connection closes.
func TestCompressionMetricsExposed(t *testing.T) {
	reg := telemetry.New()
	c := container.New(container.Config{Name: "node1"})
	c.RegisterFactory("MatMul", matmulImpl())
	xs, err := NewXDRServer(c, "127.0.0.1:0",
		ServerOptions{Telemetry: reg, Compress: CompressPolicy{Mode: CompressAdaptive}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = xs.Close() })
	if _, _, err := c.Deploy("MatMul", "m1"); err != nil {
		t.Fatal(err)
	}
	p := NewXDRPort(xs.Addr(), "m1")
	p.SetTelemetry(reg)
	p.SetCompression(CompressPolicy{Mode: CompressAdaptive})

	mata := make([]float64, 4096)
	for i := range mata {
		mata[i] = float64(i % 16)
	}
	// Several calls: the first request ships raw (the client's compressor
	// arms only once the server's answer word arrives); later requests
	// compress.
	for call := 0; call < 3; call++ {
		if _, err := p.Invoke(context.Background(), "getResult",
			wire.Args("mata", mata, "matb", mata)); err != nil {
			t.Fatal(err)
		}
	}

	for _, role := range []string{"client", "server"} {
		if v := reg.Counter("harness_xdr_compress_out_bytes_total", "role", role).Value(); v == 0 {
			t.Errorf("compress_out{role=%s} = 0", role)
		}
		if v := reg.Counter("harness_xdr_compress_in_bytes_total", "role", role).Value(); v == 0 {
			t.Errorf("compress_in{role=%s} = 0", role)
		}
		if n := reg.Histogram("harness_xdr_compress_ratio_pct", "role", role).Count(); n == 0 {
			t.Errorf("compress_ratio{role=%s} count = 0", role)
		}
		if g := reg.GaugeVec("harness_xdr_codec_connections", "codec", "role", role).With("flate").Value(); g != 1 {
			t.Errorf("codec_connections{codec=flate,role=%s} = %d, want 1", role, g)
		}
	}

	// The exposition surface (/metrics) must carry the family.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"harness_xdr_compress_out_bytes_total",
		"harness_xdr_codec_connections",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics exposition missing %s", want)
		}
	}

	_ = p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		cg := reg.GaugeVec("harness_xdr_codec_connections", "codec", "role", "client").With("flate").Value()
		sg := reg.GaugeVec("harness_xdr_codec_connections", "codec", "role", "server").With("flate").Value()
		if cg == 0 && sg == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("codec gauges after close: client=%d server=%d, want 0", cg, sg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
