package simnet

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// TestPacerHandComputed pins the pacing model against hand-computed
// delivery times: 1 MB/s bandwidth, 10 ms latency.
func TestPacerHandComputed(t *testing.T) {
	cfg := LinkConfig{Latency: 10 * time.Millisecond, Bandwidth: 1e6}
	p := pacer{cfg: cfg}
	t0 := time.Unix(1000, 0)

	// First chunk: 100 000 bytes at 1 MB/s = 100 ms serialisation,
	// + 10 ms propagation = deliver at t0+110ms.
	d1 := p.deliverAt(t0, 100_000)
	if want := t0.Add(110 * time.Millisecond); !d1.Equal(want) {
		t.Fatalf("chunk 1 delivered at %v, want %v", d1.Sub(t0), want.Sub(t0))
	}

	// Second chunk handed over immediately (t0): the pipe is busy until
	// t0+100ms, so 50 000 bytes depart at t0+150ms, deliver at t0+160ms.
	d2 := p.deliverAt(t0, 50_000)
	if want := t0.Add(160 * time.Millisecond); !d2.Equal(want) {
		t.Fatalf("chunk 2 delivered at %v, want %v", d2.Sub(t0), want.Sub(t0))
	}

	// Third chunk handed over after the pipe went idle: no queueing.
	t1 := t0.Add(1 * time.Second)
	d3 := p.deliverAt(t1, 10_000)
	if want := t1.Add(20 * time.Millisecond); !d3.Equal(want) {
		t.Fatalf("chunk 3 delivered at %v, want %v", d3.Sub(t1), want.Sub(t1))
	}

	// Zero bandwidth means no serialisation delay, latency only.
	free := pacer{cfg: LinkConfig{Latency: 5 * time.Millisecond}}
	if d := free.deliverAt(t0, 1<<30); !d.Equal(t0.Add(5 * time.Millisecond)) {
		t.Fatalf("infinite-bandwidth delivery at %v", d.Sub(t0))
	}

	// Pacer must agree with the fabric's Transfer() for a cold pipe.
	p2 := pacer{cfg: cfg}
	if d := p2.deliverAt(t0, 12345); !d.Equal(t0.Add(cfg.Transfer(12345))) {
		t.Fatal("pacer and LinkConfig.Transfer disagree on a cold pipe")
	}
}

// echoServer accepts one connection and echoes everything back.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(c, c)
				_ = c.Close()
			}()
		}
	}()
	return ln
}

func TestLinkProxyForwardsAndCounts(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()

	// Generous bandwidth, small latency: correctness test, not timing.
	proxy, err := NewLinkProxy(ln.Addr().String(), LinkConfig{Latency: time.Millisecond, Bandwidth: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	conn, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("harness"), 1000)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echo mismatch through proxy")
	}
	_ = conn.Close()

	// Counters settle once the forwarders drain.
	deadline := time.Now().Add(2 * time.Second)
	for {
		tb, tc := proxy.Bytes()
		if tb == int64(len(msg)) && tc == int64(len(msg)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("byte counters: toBackend=%d toClient=%d want %d", tb, tc, len(msg))
		}
		time.Sleep(5 * time.Millisecond)
	}
	cs := proxy.ConnStats()
	if len(cs) != 1 || cs[0].ToBackend != int64(len(msg)) || cs[0].ToClient != int64(len(msg)) {
		t.Fatalf("conn stats = %+v", cs)
	}
}

// TestLinkProxyPacesTransferTime checks wall-clock pacing against the
// model: 250 KB over 1 MB/s ≈ 250 ms serialisation, which dominates
// scheduler noise; an unpaced loopback would finish in microseconds.
func TestLinkProxyPacesTransferTime(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ln := echoServer(t)
	defer ln.Close()

	cfg := LinkConfig{Latency: 0, Bandwidth: 1e6}
	proxy, err := NewLinkProxy(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	conn, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 250_000
	payload := bytes.Repeat([]byte{0xAB}, n)
	start := time.Now()
	go func() { _, _ = conn.Write(payload) }()
	if _, err := io.ReadFull(conn, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	// Full duplex pipelines the echo behind the request: the reverse
	// direction serialises each chunk as it arrives, so the round trip is
	// one full serialisation (250 ms) plus roughly one chunk's worth of
	// tail — not 2 × 250 ms. An unpaced loopback finishes in microseconds.
	want := cfg.Transfer(n)
	if elapsed < want {
		t.Fatalf("round trip %v < modelled minimum %v — proxy is not pacing", elapsed, want)
	}
	if elapsed > 2*want {
		t.Fatalf("round trip %v, model says ≈ %v — pacing way over", elapsed, want)
	}
}
