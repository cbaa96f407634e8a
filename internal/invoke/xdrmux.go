package invoke

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"harness2/internal/wire"
	"harness2/internal/xdr"
)

// muxConn is one multiplexed client connection: a single TCP stream shared
// by any number of concurrent calls. Callers queue their frames on the
// shared frameWriter and the one that starts a batch flushes it; readLoop,
// the connection's one goroutine, hands each response to its call by
// request ID through the connection's calls table.
type muxConn struct {
	calls
	conn net.Conn
	cw   *countingWriter
	fw   *frameWriter
	wm   xdrWireMetrics // nil-safe handles; zero value is fully inert

	// Negotiation state. The dial preamble (MagicV3 + offer word)
	// pipelines with the first request frames; only once the server's
	// chosen-codec word has arrived may outbound frames compress — the
	// compressor pointer stays nil on raw streams, so the raw path costs
	// one atomic load.
	offer     uint32         // codec word sent with MagicV3
	cpol      CompressPolicy // outbound stance, CompressAuto off (see dialMux)
	comp      atomic.Pointer[xdr.Compressor]
	codecName atomic.Pointer[string] // negotiated codec, for the gauge

	deadlineSet bool // guarded by fw.mu: a write deadline is armed
}

// dialMux opens a multiplexed connection: TCP connect plus the preamble
// (MagicV3 with the offered-codec word), which is buffered so it coalesces
// with the first request frame into a single write syscall. A port dialed
// without a WSDL has no advertisement to follow, so CompressAuto is off
// here (openXDR turns an advertised `compress` capability into an
// explicit adaptive policy).
func dialMux(ctx context.Context, addr string, wm xdrWireMetrics, cpol CompressPolicy) (*muxConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("invoke: xdr dial %s: %w", addr, err)
	}
	fw := newFrameWriter(conn, wm)
	offer := cpol.offerWord(false)
	mc := &muxConn{
		calls: calls{inflight: wm.inflight},
		conn:  conn,
		cw:    fw.cw,
		fw:    fw,
		wm:    wm,
		offer: offer | 1,
		cpol:  cpol,
	}
	if err := xdr.WriteMagicV3(mc.fw, offer); err != nil {
		_ = conn.Close()
		return nil, err
	}
	go mc.readLoop()
	return mc, nil
}

// readLoop demultiplexes response frames to their waiting calls until
// the connection dies, then fails every call still pending. It first
// consumes the server's chosen-codec answer word, arming outbound
// compression when a codec was negotiated; a stream the peer closes or
// resets with no byte of that word was refused (ErrXDRRefused) — a server
// answers, and flushes, before it touches a request frame. A timeout or
// any other read failure there is a plain transport error, redialed like
// one. Compressed response payloads are restored here, before demux, so
// callers only ever see logical frames.
func (mc *muxConn) readLoop() {
	br := bufio.NewReaderSize(&countingReader{r: mc.conn, rx: mc.wm.rx}, xdrBufSize)
	var word [4]byte
	if n, err := io.ReadFull(br, word[:]); err != nil {
		if n == 0 && (err == io.EOF || errors.Is(err, syscall.ECONNRESET)) {
			err = fmt.Errorf("%w: %w", ErrXDRRefused, err) // still transient: the cause stays in the chain
			mc.wm.refused.Inc()                            // before shutdown tells any caller
		}
		mc.shutdown(err)
		return
	}
	if chosen := binary.BigEndian.Uint32(word[:]); chosen != 0 {
		c := xdr.CodecByID(uint8(chosen))
		if chosen > 255 || c == nil || mc.offer&(1<<chosen) == 0 {
			mc.shutdown(fmt.Errorf("invoke: xdr peer chose unoffered codec %d", chosen))
			return
		}
		name := c.Name()
		mc.codecName.Store(&name)
		mc.wm.codecs.With(name).Inc()
		if mc.cpol.enabled(false) {
			mc.comp.Store(xdr.NewCompressor(c, mc.cpol.adaptive(), 0))
		}
	}
	for {
		id, flags, frame, err := xdr.ReadFrameV3(br)
		if err == nil && flags != 0 {
			mc.wm.compressedIn(len(frame))
			dec, derr := xdr.DecompressFrameV3(flags, frame)
			xdr.PutFrameBuf(frame)
			frame, err = dec, derr
		}
		if err != nil {
			mc.shutdown(err)
			return
		}
		if ch := mc.take(id); ch != nil {
			ch <- reply{frame: frame} // buffered: never blocks
		} else {
			xdr.PutFrameBuf(frame) // its caller abandoned it; the connection stays healthy
		}
	}
}

// shutdown marks the connection broken, fails all pending calls, and
// closes the socket. Idempotent.
func (mc *muxConn) shutdown(err error) {
	if mc.fail(err) {
		if name := mc.codecName.Load(); name != nil {
			mc.wm.codecs.With(*name).Dec()
		}
	}
	_ = mc.conn.Close()
}

// send seals request id, compressed outside fw.mu so flate CPU never
// serializes other writers, and queues it, flushing the batch if this
// call leads it (frameWriter.FlushBatch). It reports whether any byte
// reached the socket while the frame was queued (a large frame leaves at
// once, vectored). A failed write or batch flush shuts the connection
// down, and a flushed batch may be partly on the wire, so its error
// reaches every waiting call, this one included, on its reply channel.
func (mc *muxConn) send(ctx context.Context, id uint64, e *xdr.Encoder) (bool, error) {
	frame, ce, err := mc.wm.seal(mc.comp.Load(), id, e)
	if err != nil {
		return false, err
	}
	if ce != nil {
		defer xdr.PutEncoder(ce) // frameWriter copies or writes synchronously
	}
	mc.fw.mu.Lock()
	// Arm the write deadline from this call's context, or clear a stale
	// one; deadline-free traffic skips the runtime call. Reads take no
	// deadline: it would cut other calls' replies, so await bounds each.
	if deadline, ok := ctx.Deadline(); ok {
		_ = mc.conn.SetWriteDeadline(deadline)
		mc.deadlineSet = true
	} else if mc.deadlineSet {
		_ = mc.conn.SetWriteDeadline(time.Time{})
		mc.deadlineSet = false
	}
	mc.cw.n = 0
	lead, err := mc.fw.Queue(frame)
	sent := mc.cw.n > 0
	mc.fw.mu.Unlock()
	if err != nil {
		mc.shutdown(err)
	} else if lead {
		if ferr := mc.fw.FlushBatch(); ferr != nil {
			mc.shutdown(ferr)
		}
	}
	return sent, err
}

// await waits for id's reply from readLoop. A caller whose context ends
// abandons its call alone; the connection stays healthy.
func (mc *muxConn) await(ctx context.Context, id uint64, ch chan reply) (reply, error) {
	select {
	case r := <-ch:
		return r, nil
	case <-ctx.Done():
		mc.abandon(id, ch)
		return reply{}, ctx.Err()
	}
}

// Invoke implements Port. It is safe for concurrent use; concurrent calls
// share one connection without serializing on each other's round trips.
func (p *XDRPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	return invokeBinary(ctx, p, p.instance, op, args)
}

// session returns the port's live multiplexed connection, dialing one if
// there is none or the last one broke.
func (p *XDRPort) session(ctx context.Context) (binaryConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mc != nil && !p.mc.failed() {
		return p.mc, nil
	}
	mc, err := dialMux(ctx, p.addr, p.wm, p.cpol)
	if err != nil {
		return nil, err
	}
	p.mc = mc
	return mc, nil
}
