package invoke

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"

	"harness2/internal/telemetry"
)

// TestFrameWriterByteStream checks that the mix of coalesced, flushed,
// and vectored writes produces exactly the bytes written, in order, over
// a real TCP connection (net.Buffers only vectors on real sockets).
func TestFrameWriterByteStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type recv struct {
		data []byte
		err  error
	}
	got := make(chan recv, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- recv{err: err}
			return
		}
		data, err := io.ReadAll(c)
		got <- recv{data: data, err: err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	fw := newFrameWriter(conn, newXDRWireMetrics(telemetry.Disabled(), "test"))
	var want bytes.Buffer
	writeOne := func(p []byte) {
		t.Helper()
		if _, err := fw.Write(p); err != nil {
			t.Fatal(err)
		}
		want.Write(p)
	}
	pattern := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i)
		}
		return p
	}
	writeOne(pattern(100, 1))             // coalesces
	writeOne(pattern(largeFrameMin, 2))   // vectored with the 100 bytes
	writeOne(pattern(200, 3))             // coalesces
	writeOne(pattern(xdrBufSize-10, 4))   // vectored with the 200 bytes
	writeOne(pattern(largeFrameMin-1, 5)) // one under the threshold: coalesces
	writeOne(pattern(largeFrameMin-1, 6)) // second sub-threshold frame
	writeOne(pattern(4*largeFrameMin, 7)) // vectored with both
	if fw.cw.n != want.Len() {
		// Everything so far either flushed or vectored (the two
		// sub-threshold frames left with the vectored write).
		t.Fatalf("counted %d bytes on the wire, want %d", fw.cw.n, want.Len())
	}
	writeOne(pattern(10, 8)) // stays buffered until Flush
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil { // empty flush is a no-op
		t.Fatal(err)
	}
	_ = conn.Close()

	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.Equal(r.data, want.Bytes()) {
		t.Fatalf("stream mismatch: got %d bytes, want %d", len(r.data), want.Len())
	}
	if fw.cw.n != want.Len() {
		t.Fatalf("counted %d bytes, want %d", fw.cw.n, want.Len())
	}
}

// TestFrameWriterBatchLeaders races writers that queue one small frame
// each and flush when they lead a batch: every frame reaches the socket,
// no frame is left buffered without a leader, and frames queued behind a
// leader share its write.
func TestFrameWriterBatchLeaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		data, _ := io.ReadAll(c)
		got <- data
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	fw := newFrameWriter(conn, newXDRWireMetrics(reg, "test"))
	const writers, frameLen = 64, 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fw.mu.Lock()
			lead, err := fw.Queue(bytes.Repeat([]byte{byte(i)}, frameLen))
			fw.mu.Unlock()
			if err == nil && lead {
				err = fw.FlushBatch()
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(fw.buf) != 0 || fw.flushing {
		t.Fatalf("%d bytes left buffered (leader pending %v) after every writer returned", len(fw.buf), fw.flushing)
	}
	_ = conn.Close()

	data := <-got
	var count [writers]int
	for _, b := range data {
		count[b]++
	}
	for i, n := range count {
		if n != frameLen {
			t.Fatalf("writer %d: %d bytes on the wire, want %d (stream %d bytes)", i, n, frameLen, len(data))
		}
	}
	if n := reg.Histogram("harness_xdr_mux_flush_batch_bytes", "role", "test").Count(); n < 1 || n > writers {
		t.Fatalf("%d writes for %d frames", n, writers)
	}
}
