package invoke

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"harness2/internal/resilience"
	"harness2/internal/wire"
	"harness2/internal/xdr"
)

// errXDRConnClosed marks a multiplexed connection that died before this
// call wrote anything — retrying on a fresh connection is transparent.
var errXDRConnClosed = errors.New("invoke: xdr connection closed")

// muxResult is one demultiplexed response. frame comes from the xdr
// frame pool; the receiver releases it after decoding.
type muxResult struct {
	frame []byte
	err   error
}

// clientCompress is a port's resolved outbound-compression stance,
// captured at dial time.
type clientCompress struct {
	enabled  bool // construct a compressor if the server answers a codec
	adaptive bool
}

// muxConn is one multiplexed client connection: a single TCP stream shared
// by any number of concurrent calls. Callers queue their frames on the
// shared frameWriter and the one that starts a batch flushes it; readLoop,
// the connection's one goroutine, demultiplexes responses to per-call
// channels by request ID.
type muxConn struct {
	conn net.Conn
	cw   *countingWriter
	fw   *frameWriter
	wm   xdrWireMetrics // nil-safe handles; zero value is fully inert

	// Negotiation state. The dial preamble (MagicV3 + offer word)
	// pipelines with the first request frames; only once the server's
	// chosen-codec word has arrived may outbound frames compress — the
	// compressor pointer stays nil on raw streams, so the raw path costs
	// one atomic load.
	offer     uint32 // codec word sent with MagicV3
	cc        clientCompress
	comp      atomic.Pointer[xdr.Compressor]
	codecName atomic.Pointer[string] // negotiated codec, for the gauge

	deadlineSet bool // guarded by fw.mu: a write deadline is armed

	reused atomic.Bool // at least one call completed on this connection

	mu      sync.Mutex
	err     error // set once the connection is broken
	nextID  uint64
	pending map[uint64]chan muxResult
}

// dialMux opens a multiplexed connection: TCP connect plus the preamble
// (MagicV3 with the offered-codec word), which is buffered so it coalesces
// with the first request frame into a single write syscall.
func dialMux(ctx context.Context, addr string, wm xdrWireMetrics, offer uint32, cc clientCompress) (*muxConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("invoke: xdr dial %s: %w", addr, err)
	}
	fw := newFrameWriter(conn, wm)
	mc := &muxConn{
		conn:    conn,
		cw:      fw.cw,
		fw:      fw,
		wm:      wm,
		offer:   offer | 1,
		cc:      cc,
		pending: make(map[uint64]chan muxResult),
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
		if mc.cc.enabled {
			mc.comp.Store(xdr.NewCompressor(c, mc.cc.adaptive, 0))
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
		mc.mu.Lock()
		ch, ok := mc.pending[id]
		delete(mc.pending, id)
		mc.mu.Unlock()
		if ok {
			mc.wm.inflight.Dec()
			ch <- muxResult{frame: frame} // buffered: never blocks
		} else {
			// The caller abandoned the call (ctx cancellation). The
			// connection stays healthy; only the late frame is dropped.
			xdr.PutFrameBuf(frame)
		}
	}
}

// shutdown marks the connection broken, fails all pending calls, and
// closes the socket. Idempotent.
func (mc *muxConn) shutdown(err error) {
	mc.mu.Lock()
	if mc.err == nil {
		mc.err = err
		if errors.Is(err, ErrXDRRefused) {
			mc.wm.refused.Inc()
		}
		if name := mc.codecName.Load(); name != nil {
			mc.wm.codecs.With(*name).Dec()
		}
		if n := len(mc.pending); n > 0 {
			mc.wm.inflight.Add(-int64(n))
		}
		for id, ch := range mc.pending {
			delete(mc.pending, id)
			ch <- muxResult{err: err}
		}
	}
	mc.mu.Unlock()
	_ = mc.conn.Close()
}

// muxChPool recycles per-call response channels. A channel may be
// returned to the pool only after its single send has been received —
// i.e. on the receive paths of invokeMux, never on the abandon
// (deregister) path, where a late send could still race in.
var muxChPool = sync.Pool{
	New: func() any { return make(chan muxResult, 1) },
}

// register allocates a request ID and its response channel.
func (mc *muxConn) register() (uint64, chan muxResult, error) {
	ch := muxChPool.Get().(chan muxResult)
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.err != nil {
		muxChPool.Put(ch)
		if errors.Is(mc.err, ErrXDRRefused) {
			return 0, nil, mc.err
		}
		return 0, nil, errXDRConnClosed
	}
	mc.nextID++
	mc.pending[mc.nextID] = ch
	mc.wm.inflight.Inc()
	return mc.nextID, ch, nil
}

// deregister abandons a pending call (ctx cancellation). If the response
// raced in first it is drained and released, keeping the pool tight.
func (mc *muxConn) deregister(id uint64, ch chan muxResult) {
	mc.mu.Lock()
	if _, present := mc.pending[id]; present {
		delete(mc.pending, id)
		mc.wm.inflight.Dec()
	}
	mc.mu.Unlock()
	select {
	case res := <-ch:
		xdr.PutFrameBuf(res.frame)
	default:
	}
}

func (mc *muxConn) markReused() {
	if !mc.reused.Load() {
		mc.reused.Store(true)
	}
}

func (mc *muxConn) wasReused() bool { return mc.reused.Load() }

// writeRequest seals the request encoder into a frame for id and queues
// it, flushing the batch if this call leads it (frameWriter.FlushBatch).
// It reports whether any byte reached the socket while the frame was
// queued (a large frame leaves immediately as a vectored write; see
// frameWriter), which gates the caller's retry decision. A failed batch
// flush shuts the connection down instead: the frames it carried may be
// partly on the wire, so the error reaches every waiting call, this one
// included, through its response channel.
//
// With a negotiated codec, the payload may be compressed here — outside
// fw.mu, so flate CPU never serializes other writers. The raw path (no
// compressor, frame under the floor, adaptive backoff, or incompressible
// payload) seals the caller's encoder in place, with zero extra
// allocations.
func (mc *muxConn) writeRequest(ctx context.Context, id uint64, e *xdr.Encoder) (wroteAny bool, err error) {
	var frame []byte
	var ce *xdr.Encoder // pooled holder of a compressed frame, if any
	if comp := mc.comp.Load(); comp != nil {
		payload := e.FramePayloadV3()
		if frame, ce = comp.CompressFrameV3(id, payload); ce != nil {
			mc.wm.compressedOut(len(frame)-xdr.FrameHeaderLenV3, len(payload))
		}
	}
	if ce == nil {
		if frame, err = e.FrameBytesV3(id, 0); err != nil {
			return false, err
		}
	}
	if ce != nil {
		defer xdr.PutEncoder(ce) // frameWriter copies or writes synchronously
	}
	mc.fw.mu.Lock()
	// Arm the write deadline from this call's context; clearing a
	// previously-set deadline means no call inherits a stale timeout,
	// and the deadlineSet flag spares deadline-free traffic the runtime
	// call entirely. Reads are unbounded here — per-call read timeouts
	// are enforced by the ctx select in invokeMux, because a deadline on
	// the shared read side would interrupt other calls' responses.
	if deadline, ok := ctx.Deadline(); ok {
		_ = mc.conn.SetWriteDeadline(deadline)
		mc.deadlineSet = true
	} else if mc.deadlineSet {
		_ = mc.conn.SetWriteDeadline(time.Time{})
		mc.deadlineSet = false
	}
	mc.cw.n = 0
	lead, err := mc.fw.Queue(frame)
	wroteAny = mc.cw.n > 0
	mc.fw.mu.Unlock()
	if lead {
		if ferr := mc.fw.FlushBatch(); ferr != nil {
			mc.shutdown(ferr)
		}
	}
	return wroteAny, err
}

// invokeMux is the call path behind Invoke.
func (p *XDRPort) invokeMux(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	e := xdr.GetEncoder()
	defer xdr.PutEncoder(e)
	e.ReserveFrameHeaderV3()
	if err := encodeRequest(e, p.instance, op, args); err != nil {
		return nil, err
	}

	// At most one transparent resend, and only when provably safe (see
	// below); a dead connection discovered before writing costs only a
	// redial, bounded separately so a flapping peer cannot loop forever.
	const maxRedials = 2
	resent := false
	for redials := 0; ; {
		mc, err := p.muxConnLocked(ctx)
		if err != nil {
			// Dial failure: provably unsent, safe to retry at any level.
			return nil, resilience.MarkUnsent(err)
		}
		id, ch, err := mc.register()
		if err != nil {
			// The pooled connection died before this call touched it;
			// nothing was sent. One that died refused is not redialed: the
			// peer's answer would be the same.
			p.dropMux(mc)
			if redials++; redials <= maxRedials && !errors.Is(err, ErrXDRRefused) {
				continue
			}
			return nil, resilience.MarkUnsent(fmt.Errorf("invoke: xdr call %s: %w", op, err))
		}
		wroteAny, err := mc.writeRequest(ctx, id, e)
		if err != nil {
			mc.deregister(id, ch)
			mc.shutdown(err) // a partial frame desyncs the stream
			p.dropMux(mc)
			// Resend only if this was a pooled (reused) connection whose
			// first write failed outright — zero bytes reached the wire,
			// so the server cannot have seen, let alone executed, the
			// request. Mid-frame failures are surfaced.
			if !wroteAny && mc.wasReused() && !resent {
				resent = true
				continue
			}
			werr := fmt.Errorf("invoke: xdr call %s: %w", op, err)
			if !wroteAny {
				// Zero bytes reached the wire: the request provably never
				// left this process, so higher-level policies may retry it
				// even for non-idempotent operations.
				return nil, resilience.MarkUnsent(werr)
			}
			return nil, werr
		}
		select {
		case res := <-ch:
			// The channel's single send has been received, so it can be
			// recycled for a future call.
			muxChPool.Put(ch)
			if res.err != nil {
				// The request reached the wire but the connection died
				// before the response — refused at the preamble included,
				// which this side cannot tell from an answer lost in
				// flight: the server may have executed the call, so
				// surfacing the error is the only safe move.
				p.dropMux(mc)
				return nil, fmt.Errorf("invoke: xdr call %s: %w", op, res.err)
			}
			mc.markReused()
			out, derr := decodeResponse(res.frame)
			xdr.PutFrameBuf(res.frame)
			return out, derr
		case <-ctx.Done():
			// Abandon this call only: the connection (and every other
			// in-flight call on it) stays healthy.
			mc.deregister(id, ch)
			return nil, ctx.Err()
		}
	}
}

// muxConnLocked returns the port's live multiplexed connection, dialing
// one if needed.
func (p *XDRPort) muxConnLocked(ctx context.Context) (*muxConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mc != nil {
		return p.mc, nil
	}
	// A direct port resolves CompressAuto to off: with no WSDL there is no
	// advertisement to follow (openPort translates an advertised `compress`
	// capability into an explicit adaptive policy).
	cc := clientCompress{enabled: p.cpol.enabled(false), adaptive: p.cpol.adaptive()}
	mc, err := dialMux(ctx, p.addr, p.wm, p.cpol.offerWord(false), cc)
	if err != nil {
		return nil, err
	}
	p.mc = mc
	return mc, nil
}

// dropMux forgets mc if it is still the port's current connection. A
// concurrent caller may already have dialed a replacement; only the
// broken connection is discarded.
func (p *XDRPort) dropMux(mc *muxConn) {
	p.mu.Lock()
	if p.mc == mc {
		p.mc = nil
	}
	p.mu.Unlock()
}
