package invoke

import (
	"net"
	"runtime"
	"sync"

	"harness2/internal/telemetry"
)

// largeFrameMin is the frame size at which the write path stops
// copying through the coalescing buffer and hands the frame to the
// kernel directly, vectored together with whatever smaller frames are
// already buffered.
const largeFrameMin = 8 << 10

// frameWriter is a connection's write side, shared by every caller (client)
// or worker (server) on it. Small frames coalesce in a buffer that leaves
// in one write syscall per batch; the writer that starts a batch leads it
// (see Queue and FlushBatch), so no goroutine exists only to flush. Frames
// of largeFrameMin bytes or more skip the copy and leave immediately as a
// single writev of [buffered frames, large frame] via net.Buffers.
// bufio.Writer would instead memcpy the large frame's prefix into its
// buffer and split the rest across extra write calls — for bulk numeric
// payloads the copy is the dominant cost the zero-copy encoder just
// removed, so the writer must not reintroduce it.
//
// Byte accounting is preserved for the retry logic: every byte that
// reaches the socket — buffered, direct, or vectored — is counted by the
// shared countingWriter, so "nothing of this request hit the wire"
// remains decidable (see countingWriter). Concurrent writers hold mu
// around Write, Flush and Queue; FlushBatch takes it itself.
type frameWriter struct {
	mu       sync.Mutex
	conn     net.Conn
	cw       *countingWriter
	fb       *telemetry.Histogram // bytes committed per flush/writev
	buf      []byte
	flushing bool // a batch leader has queued and not yet flushed
}

func newFrameWriter(conn net.Conn, wm xdrWireMetrics) *frameWriter {
	return &frameWriter{
		conn: conn,
		cw:   &countingWriter{w: conn, tx: wm.tx},
		fb:   wm.flushBatch,
		buf:  make([]byte, 0, xdrBufSize),
	}
}

// Write queues one frame (callers pass whole frames, never fragments).
// Small frames are copied into the coalescing buffer — flushing first if
// they would not fit — and wait for a flush; large frames go out vectored
// right away, since batching exists to amortize syscalls over small frames
// and a large frame amortizes its own.
func (fw *frameWriter) Write(p []byte) (int, error) {
	if len(p) >= largeFrameMin {
		if err := fw.writeVectored(p); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	if len(fw.buf)+len(p) > cap(fw.buf) {
		if err := fw.Flush(); err != nil {
			return 0, err
		}
	}
	fw.buf = append(fw.buf, p...)
	return len(p), nil
}

// Queue writes one frame like Write and reports whether the caller now
// leads a batch: its frame is buffered and no leader is pending, so the
// caller must call FlushBatch once it has released mu.
func (fw *frameWriter) Queue(p []byte) (lead bool, err error) {
	if _, err := fw.Write(p); err != nil {
		return false, err
	}
	if fw.flushing || len(fw.buf) == 0 {
		return false, nil
	}
	fw.flushing = true
	return true, nil
}

// FlushBatch is a batch leader's flush. It yields once first, so every
// caller or worker that is already runnable queues its frame behind the
// leader's, then commits the whole burst in one write syscall — the
// dominant per-call cost on a fast network, and where the multiplexed
// transport's aggregate throughput comes from. A lone writer pays one
// scheduler yield with an empty run queue. Frames queued after the flush
// find no leader pending and start the next batch.
func (fw *frameWriter) FlushBatch() error {
	runtime.Gosched()
	fw.mu.Lock()
	err := fw.Flush()
	fw.flushing = false
	fw.mu.Unlock()
	return err
}

// writeVectored commits the pending buffered frames and one large frame
// in a single writev, with no copy of p.
func (fw *frameWriter) writeVectored(p []byte) error {
	if len(fw.buf) == 0 {
		_, err := fw.cw.Write(p)
		if err == nil {
			fw.fb.Observe(uint64(len(p)))
		}
		return err
	}
	total := len(fw.buf) + len(p)
	bufs := net.Buffers{fw.buf, p}
	n, err := bufs.WriteTo(fw.conn)
	fw.buf = fw.buf[:0]
	fw.cw.n += int(n)
	if n > 0 {
		fw.cw.tx.Add(uint64(n))
	}
	if err == nil {
		fw.fb.Observe(uint64(total))
	}
	return err
}

// Flush commits the buffered frames in one write. On error the remainder
// is dropped rather than retained: a partial frame has desynced the
// stream, and every caller responds by closing the connection.
func (fw *frameWriter) Flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	n := len(fw.buf)
	_, err := fw.cw.Write(fw.buf)
	fw.buf = fw.buf[:0]
	if err == nil {
		fw.fb.Observe(uint64(n))
	}
	return err
}
