package bench

import (
	"context"
	"os"
	"testing"
	"time"

	"harness2/internal/invoke"
	"harness2/internal/wire"
	"harness2/internal/xdr"
)

// TestE16Gate is the CI regression gate over the S30 data plane. Like
// TestE14Gate it only runs when E16_GATE=1 (CI exports it), and the
// floors sit far below the locally measured margins: zero-copy encode
// speedup ≥1.3x against a 2–3.4x measurement, zero encode allocations
// against a measured zero, and shm small-call speedup ≥1.3x against a
// ~6x best-of-three measurement.
func TestE16Gate(t *testing.T) {
	if os.Getenv("E16_GATE") == "" {
		t.Skip("set E16_GATE=1 to run the timing gate")
	}

	// Gate 1: the zero-copy float64 array codec must beat the portable
	// loop by the floor factor on an 8Ki-element payload.
	const n = 8192
	data := RandDoubles(n, 16)
	e := xdr.NewEncoder(8*n + 16)
	encode := func(on bool) time.Duration {
		prev := xdr.SetZeroCopy(on)
		defer xdr.SetZeroCopy(prev)
		e.Reset()
		e.Float64Array(data) // warm
		return timeIt(200, func() {
			e.Reset()
			e.Float64Array(data)
		})
	}
	fastPer, portPer := encode(true), encode(false)
	if speedup := float64(portPer) / float64(fastPer); speedup < 1.3 {
		t.Errorf("zero-copy encode speedup %.2fx below the 1.3x gate (fast %v, portable %v)",
			speedup, fastPer, portPer)
	}

	// Gate 2: a steady-state zero-copy encode into a warm encoder must
	// not allocate.
	e.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		e.Float64Array(data)
	})
	if allocs != 0 {
		t.Errorf("zero-copy encode allocates %.1f objects/op; gate is 0", allocs)
	}

	// Gate 3: the shm binding must beat the XDR socket on same-host
	// small-call latency. Best of three trials per path keeps the ratio
	// stable under scheduler noise.
	h, err := newHost()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	h.node.Container().RegisterFactory("ArraySink", arraySinkFactory())
	if _, err := h.publish("ArraySink", "sink"); err != nil {
		t.Fatal(err)
	}
	if h.node.ShmAddr() == "" {
		t.Skip("shm binding unsupported on this platform")
	}
	shmPort, err := invoke.NewShmPort(h.node.ShmAddr(), "sink")
	if err != nil {
		t.Fatal(err)
	}
	defer shmPort.Close()
	xdrPort := invoke.NewXDRPort(h.node.XDRAddr(), "sink")
	defer xdrPort.Close()
	ctx := context.Background()
	args := wire.Args("data", []float64{1})
	measure := func(p invoke.Port) time.Duration {
		best := time.Duration(0)
		for trial := 0; trial < 3; trial++ {
			per := timeIt(300, func() {
				if _, err := p.Invoke(ctx, "checksum", args); err != nil {
					t.Fatal(err)
				}
			})
			if best == 0 || per < best {
				best = per
			}
		}
		return best
	}
	measure(shmPort) // warm both connections before timing
	measure(xdrPort)
	shmPer := measure(shmPort)
	xdrPer := measure(xdrPort)
	if speedup := float64(xdrPer) / float64(shmPer); speedup < 1.3 {
		t.Errorf("shm small-call speedup %.2fx below the 1.3x gate (shm %v, xdr %v)",
			speedup, shmPer, xdrPer)
	}
}
