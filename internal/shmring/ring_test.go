package shmring

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

func TestRecordRoundTrip(t *testing.T) {
	creator, peer, err := NewPair(1<<12, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	for i := 0; i < 100; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, i*13%300)
		if err := peer.A.WriteRecord(uint64(i), payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		id, got, err := creator.A.ReadRecord(nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if id != uint64(i) || !bytes.Equal(got, payload) {
			t.Fatalf("record %d: id=%d len=%d", i, id, len(got))
		}
	}
}

// TestWrapAround forces records across the ring boundary at every
// offset a small ring can produce.
func TestWrapAround(t *testing.T) {
	creator, peer, err := NewPair(1<<8, 1) // 256-byte ring
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}
	var buf []byte
	for i := 0; i < 64; i++ {
		if err := peer.A.WriteRecord(uint64(i), payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		var id uint64
		id, buf, err = creator.A.ReadRecord(buf)
		if err != nil || id != uint64(i) || !bytes.Equal(buf, payload) {
			t.Fatalf("iteration %d: id=%d err=%v", i, id, err)
		}
	}
}

// TestBlockingProducerConsumer runs a full-duplex echo across both
// rings with the producer outrunning the tiny ring (exercising the
// space wait) — the shape `go test -race` needs to vet the counter
// protocol.
func TestBlockingProducerConsumer(t *testing.T) {
	creator, peer, err := NewPair(1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // server: echo A → B
		defer wg.Done()
		var buf []byte
		for {
			id, payload, err := creator.A.ReadRecord(buf)
			if err != nil {
				return
			}
			buf = payload
			if err := creator.B.WriteRecord(id, payload); err != nil {
				return
			}
		}
	}()
	errc := make(chan error, 1)
	go func() { // client: write A, verify echoes from B
		defer wg.Done()
		var buf []byte
		for i := 0; i < n; i++ {
			want := bytes.Repeat([]byte{byte(i)}, i%200)
			if err := peer.A.WriteRecord(uint64(i), want); err != nil {
				errc <- err
				return
			}
			id, got, err := peer.B.ReadRecord(buf)
			if err != nil {
				errc <- err
				return
			}
			buf = got
			if id != uint64(i) || !bytes.Equal(got, want) {
				errc <- fmt.Errorf("echo %d: id=%d len=%d", i, id, len(got))
				return
			}
		}
		errc <- nil
		creator.Close() // unblocks the echo goroutine
	}()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestCloseUnblocksAndDrains(t *testing.T) {
	creator, peer, err := NewPair(1<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	// A record buffered before the PEER closes must drain on this side.
	if err := peer.A.WriteRecord(9, []byte("pending")); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	id, got, err := creator.A.ReadRecord(nil)
	if err != nil || id != 9 || string(got) != "pending" {
		t.Fatalf("drain: id=%d err=%v", id, err)
	}
	if _, _, err := creator.A.ReadRecord(nil); err != io.EOF {
		t.Fatalf("after drain: %v", err)
	}
	// The closing side itself is cut off immediately — its mapping may
	// already be gone.
	if err := peer.A.WriteRecord(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after own close: %v", err)
	}
	if !creator.Closed() || !peer.Closed() {
		t.Fatal("Closed() not observed on both sides")
	}
}

// TestRecordLargerThanRing is the regression for oversized records: a
// record wider than the ring must stream through in chunks rather than
// fail with ErrTooLarge (which used to make same-host calls with
// >ring-capacity payloads permanently fail, since Dial auto-prefers
// shm). The reader drains concurrently, freeing space for the writer.
func TestRecordLargerThanRing(t *testing.T) {
	creator, peer, err := NewPair(1<<8, 1) // 256-byte ring
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	payload := make([]byte, 1<<14) // 64x the ring capacity
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	go func() {
		if err := peer.A.WriteRecord(77, payload); err != nil {
			t.Errorf("streamed write: %v", err)
		}
		// A small record behind the streamed one must still round-trip.
		if err := peer.A.WriteRecord(78, []byte("after")); err != nil {
			t.Errorf("write after stream: %v", err)
		}
	}()
	id, got, err := creator.A.ReadRecord(nil)
	if err != nil || id != 77 || !bytes.Equal(got, payload) {
		t.Fatalf("streamed read: id=%d len=%d err=%v", id, len(got), err)
	}
	id, got, err = creator.A.ReadRecord(got)
	if err != nil || id != 78 || string(got) != "after" {
		t.Fatalf("read after stream: id=%d err=%v", id, err)
	}
}

// TestOversizedRecordRejected: only payloads beyond MaxRecordBytes are
// refused (the slice is never touched, so the allocation stays lazy).
func TestOversizedRecordRejected(t *testing.T) {
	creator, _, err := NewPair(1<<8, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	if err := creator.B.WriteRecord(1, make([]byte, MaxRecordBytes+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v", err)
	}
}

// TestCloseMidStreamReportsTruncation: a segment closed while a record
// is mid-stream must surface an error on the reader, not hang or
// deliver a short record.
func TestCloseMidStreamReportsTruncation(t *testing.T) {
	creator, peer, err := NewPair(1<<8, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	writerDone := make(chan error, 1)
	go func() {
		writerDone <- peer.A.WriteRecord(5, make([]byte, 1<<13))
	}()
	// Wait until the header is surely published, then close with the
	// writer still blocked on space.
	if err := creator.A.waitData(recordHeader, nil); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	if err := <-writerDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("mid-stream writer: %v", err)
	}
	if _, _, err := creator.A.ReadRecord(nil); err == nil {
		t.Fatal("truncated stream delivered without error")
	}
}

// TestReadRecordStopBeforeRecord: a stop that closes while no record is
// buffered ends the read with ErrStopped and leaves the ring exactly as
// it was, so the next read gets the next record intact.
func TestReadRecordStopBeforeRecord(t *testing.T) {
	creator, peer, err := NewPair(1<<8, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	stop := make(chan struct{})
	close(stop)
	head, tail := creator.A.head.Load(), creator.A.tail.Load()
	res := make(chan error, 1)
	go func() {
		_, _, err := creator.A.ReadRecordStop(nil, stop)
		res <- err
	}()
	select {
	case err := <-res:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("stopped read on an empty ring: %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read on an empty ring ignored its closed stop")
	}
	if creator.A.head.Load() != head || creator.A.tail.Load() != tail {
		t.Fatal("stopped read moved the ring counters")
	}
	if err := peer.A.WriteRecord(3, []byte("next")); err != nil {
		t.Fatal(err)
	}
	id, got, err := creator.A.ReadRecord(nil)
	if err != nil || id != 3 || string(got) != "next" {
		t.Fatalf("read after stop: id=%d payload=%q err=%v", id, got, err)
	}
}

// TestReadRecordStopMidStream: once a record has begun, a closed stop is
// ignored — a record wider than the ring, still streaming when the read
// starts, is delivered whole and bit-exact.
func TestReadRecordStopMidStream(t *testing.T) {
	creator, peer, err := NewPair(1<<8, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	payload := make([]byte, 1<<13)
	for i := range payload {
		payload[i] = byte(i * 29)
	}
	go func() {
		if err := peer.A.WriteRecord(41, payload); err != nil {
			t.Errorf("streamed write: %v", err)
		}
	}()
	// The header is published and the writer is blocked on the full ring.
	if err := creator.A.waitData(recordHeader, nil); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	id, got, err := creator.A.ReadRecordStop(nil, stop)
	if err != nil || id != 41 || !bytes.Equal(got, payload) {
		t.Fatalf("stopped mid-stream: id=%d len=%d err=%v", id, len(got), err)
	}
}

// TestReadRecordStopWithClose: a stop that closes together with the
// segment changes nothing about close semantics — buffered records
// drain, then io.EOF after the peer's close and ErrClosed after this
// side's own.
func TestReadRecordStopWithClose(t *testing.T) {
	creator, peer, err := NewPair(1<<8, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	stop := make(chan struct{})
	if err := peer.A.WriteRecord(8, []byte("last")); err != nil {
		t.Fatal(err)
	}
	close(stop)
	peer.Close()
	id, got, err := creator.A.ReadRecordStop(nil, stop)
	if err != nil || id != 8 || string(got) != "last" {
		t.Fatalf("drain: id=%d err=%v", id, err)
	}
	if _, _, err := creator.A.ReadRecordStop(nil, stop); err != io.EOF {
		t.Fatalf("after peer close: %v, want io.EOF", err)
	}
	creator.Close()
	if _, _, err := creator.A.ReadRecordStop(nil, stop); !errors.Is(err, ErrClosed) {
		t.Fatalf("after own close: %v, want ErrClosed", err)
	}
}

func TestSegmentValidation(t *testing.T) {
	if _, err := initSegment(alignedBuf(SegmentSize(96)), 96, 1); err == nil {
		t.Fatal("non-power-of-two ring size accepted")
	}
	mem := alignedBuf(SegmentSize(1 << 8))
	if _, err := initSegment(mem, 1<<8, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := attachSegment(mem, 42); err != nil {
		t.Fatalf("matching generation rejected: %v", err)
	}
	if _, err := attachSegment(mem, 41); !errors.Is(err, ErrWrongGeneration) {
		t.Fatalf("stale generation accepted: %v", err)
	}
	mem[0] ^= 0xFF
	if _, err := attachSegment(mem, 42); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

func TestMmapSegment(t *testing.T) {
	if !Supported() {
		t.Skip("no mmap on this platform")
	}
	server, err := Create(t.TempDir(), 1<<12, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Open(server.Path(), 99)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.A.WriteRecord(5, []byte("cross-mapping")); err != nil {
		t.Fatal(err)
	}
	id, got, err := server.A.ReadRecord(nil)
	if err != nil || id != 5 || string(got) != "cross-mapping" {
		t.Fatalf("id=%d payload=%q err=%v", id, got, err)
	}

	if _, err := Open(server.Path(), 100); !errors.Is(err, ErrWrongGeneration) {
		t.Fatalf("wrong generation accepted: %v", err)
	}
}

// FuzzShmRingRecord round-trips arbitrary payloads — split into
// variable-size chunks by the fuzzer's second input — through a small
// ring, checking exact reassembly and that no input corrupts the
// counter protocol.
func FuzzShmRingRecord(f *testing.F) {
	f.Add([]byte("hello shm"), uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xAB}, 500), uint8(97))

	f.Fuzz(func(t *testing.T, data []byte, step uint8) {
		creator, peer, err := NewPair(1<<8, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer creator.Close()
		chunk := int(step)%100 + 1
		done := make(chan struct{})
		go func() {
			defer close(done)
			for off := 0; off < len(data); off += chunk {
				end := min(off+chunk, len(data))
				if err := peer.A.WriteRecord(uint64(off), data[off:end]); err != nil {
					return
				}
			}
			_ = peer.A.WriteRecord(^uint64(0), nil) // terminator
		}()
		var rebuilt []byte
		var buf []byte
		for {
			id, payload, err := creator.A.ReadRecord(buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			buf = payload
			if id == ^uint64(0) {
				break
			}
			if int(id) != len(rebuilt) {
				t.Fatalf("record out of order: id=%d want %d", id, len(rebuilt))
			}
			rebuilt = append(rebuilt, payload...)
		}
		<-done
		if !bytes.Equal(rebuilt, data) {
			t.Fatalf("reassembled %d bytes, want %d", len(rebuilt), len(data))
		}
	})
}
