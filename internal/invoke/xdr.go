package invoke

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"harness2/internal/container"
	"harness2/internal/resilience"
	"harness2/internal/resilience/chaos"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
	"harness2/internal/xdr"
)

// The XDR binding wire protocol. Each frame is an xdr record — a v1
// [len][payload] record for legacy serial connections, or a v2
// [len][request-id][payload] record on multiplexed connections (see
// internal/xdr/frame.go for the framing and version negotiation).
//
// Request:  string instance; string op; uint32 nargs;
//           nargs × (string name, tagged value)
// Response: uint32 status (0 ok / 1 fault);
//           ok:    uint32 nouts; nouts × (string name, tagged value)
//           fault: string message
//
// Values use xdr.EncodeValue and are therefore restricted to numeric data
// and arrays, per the paper's design of the binding. The header strings
// exist to "mimic the behavior of the RMI daemon to select the actual
// target component".

// xdrBufSize sizes the per-connection buffered reader/writer: one flush
// per frame means one write syscall for any frame that fits.
const xdrBufSize = 32 << 10

// XDRServerOption configures NewXDRServer.
type XDRServerOption func(*XDRServer)

// WithXDRWorkers bounds the v2 dispatch worker pool: at most n request
// frames execute concurrently across all multiplexed connections. Values
// < 1 are ignored.
func WithXDRWorkers(n int) XDRServerOption {
	return func(s *XDRServer) {
		if n >= 1 {
			s.sem = make(chan struct{}, n)
		}
	}
}

// WithXDRTelemetry selects the server's metrics registry; nil falls back
// to the process default, telemetry.Disabled() switches instrumentation
// off.
func WithXDRTelemetry(r *telemetry.Registry) XDRServerOption {
	return func(s *XDRServer) { s.tel = r }
}

// WithXDRLimiter installs server-side admission control: requests beyond
// the limiter's bounds are refused with the distinguished Overloaded
// fault before the container executes them. A nil limiter admits
// everything.
func WithXDRLimiter(l *resilience.Limiter) XDRServerOption {
	return func(s *XDRServer) { s.limiter = l }
}

// WithXDRCompression sets the server's v3 compression policy: which
// codec it accepts from clients (and answers at negotiation) and how its
// own response frames are compressed. The default (auto) accepts the
// default codec and compresses responses adaptively — but only on
// connections whose client offered a codec, so raw peers see no change.
func WithXDRCompression(pol CompressPolicy) XDRServerOption {
	return func(s *XDRServer) { s.cpol = pol }
}

// WithXDRMaxProto caps the wire protocol versions the server speaks —
// WithXDRMaxProto(2) reproduces a pre-v3 peer, which reads MagicV3 as an
// over-limit v1 frame length and drops the connection, exactly what the
// negotiation matrix tests need to prove clients fall back silently.
func WithXDRMaxProto(v int) XDRServerOption {
	return func(s *XDRServer) { s.maxProto = v }
}

// XDRServer serves the XDR socket binding for a container's instances.
// It speaks both wire protocol versions, auto-detected per connection:
// v1 connections are served strictly sequentially (the protocol has no
// request IDs, so ordering is the contract); v2 connections dispatch
// every request frame to a bounded worker pool so one slow invocation
// cannot head-of-line-block the connection.
type XDRServer struct {
	dispatcher
	ln net.Listener
	wm xdrWireMetrics

	cpol     CompressPolicy // v3 compression stance (default auto)
	maxProto int            // highest wire protocol served (default 3)

	sem chan struct{} // bounds concurrently executing v2 requests

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// NewXDRServer starts an XDR listener on addr (e.g. "127.0.0.1:0") that
// dispatches to instances of c.
func NewXDRServer(c *container.Container, addr string, opts ...XDRServerOption) (*XDRServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("invoke: xdr listen: %w", err)
	}
	s := &XDRServer{
		ln: ln, conns: make(map[net.Conn]bool),
		sem:      make(chan struct{}, defaultXDRWorkers()),
		maxProto: 3,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.dispatcher.init(c, "xdr-server")
	s.wm = newXDRWireMetrics(telemetry.Or(s.tel), "server")
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func defaultXDRWorkers() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// Addr returns the listener's address.
func (s *XDRServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all open connections, then waits for
// in-flight handlers to drain.
func (s *XDRServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.closeStop()
	s.wg.Wait()
	return err
}

func (s *XDRServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn sniffs the protocol version from the first word of the
// stream: MagicV2 opens a multiplexed session, MagicV3 a multiplexed
// session with codec negotiation; any legal v1 frame length (always <
// MagicV2 < MagicV3, by construction) starts a legacy sequential
// session. With maxProto < 3 the MagicV3 word falls through to the v1
// path, which rejects it as an over-limit frame length — byte-for-byte
// what a real pre-v3 server does.
func (s *XDRServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReaderSize(&countingReader{r: conn, rx: s.wm.rx}, xdrBufSize)
	var first [4]byte
	if _, err := io.ReadFull(br, first[:]); err != nil {
		return
	}
	word := binary.BigEndian.Uint32(first[:])
	if word == xdr.MagicV2 {
		s.serveMux(conn, br, 2, 0)
		return
	}
	if word == xdr.MagicV3 && s.maxProto >= 3 {
		var off [4]byte
		if _, err := io.ReadFull(br, off[:]); err != nil {
			return
		}
		s.serveMux(conn, br, 3, binary.BigEndian.Uint32(off[:]))
		return
	}
	s.serveV1(conn, br, word)
}

// serveV1 is the legacy path: one frame in, one frame out, in order.
func (s *XDRServer) serveV1(conn net.Conn, br *bufio.Reader, firstLen uint32) {
	bw := bufio.NewWriterSize(&countingWriter{w: conn, tx: s.wm.tx}, xdrBufSize)
	var arena xdr.Arena
	frame, err := xdr.ReadFramePooledAfterLen(br, firstLen)
	for err == nil {
		resp := s.handle(frame, 1, &arena)
		xdr.PutFrameBuf(frame)
		if werr := xdr.WriteFrame(bw, resp.Bytes()); werr == nil {
			err = bw.Flush()
		} else {
			err = werr
		}
		xdr.PutEncoder(resp)
		if err != nil {
			return
		}
		frame, err = xdr.ReadFramePooled(br)
	}
}

// v2task is one request frame awaiting a worker.
type v2task struct {
	id    uint64
	flags byte // v3 codec flags; 0 on v2 connections and raw frames
	frame []byte
}

// serveMux is the multiplexed path (wire protocol v2 and v3): request
// frames are handed to a pool of persistent per-connection workers
// (bounded globally by s.sem) and responses are written back — tagged
// with the request ID they answer — as they complete, in any order.
// Persistent workers, rather than a goroutine per frame, keep their grown
// stacks across requests; per-call goroutine spawn and stack-copy churn
// would otherwise dominate the profile at high request rates.
//
// Workers buffer their response frames and a dedicated flusher goroutine
// commits them: after each wakeup it yields once so every worker that is
// already runnable appends its frame first, then the whole burst leaves
// in one write syscall (the dominant per-call cost on a fast network).
// An isolated response still flushes with only a scheduler yield of
// extra latency, and a bulk response skips the coalescing copy entirely
// — frameWriter sends it vectored with whatever is already buffered.
// See muxConn.flushLoop for the client-side twin.
//
// On a v3 connection the server first answers the client's offer word
// with the chosen codec — flushed before any request frame is touched,
// so a client that never sees the answer knows the server processed
// nothing — then decompresses flagged request payloads in the workers
// (parallel CPU) and compresses eligible response frames per cpol.
func (s *XDRServer) serveMux(conn net.Conn, br *bufio.Reader, proto int, offer uint32) {
	fw := newFrameWriter(conn, s.wm)
	var wmu sync.Mutex // serializes response frames on the shared writer

	var comp *xdr.Compressor // response compression; nil = raw
	if proto >= 3 {
		chosen := xdr.ChooseCodec(offer, s.cpol.acceptWord(true))
		var answer [4]byte
		if chosen != nil {
			binary.BigEndian.PutUint32(answer[:], uint32(chosen.ID()))
		}
		if _, err := fw.Write(answer[:]); err != nil {
			return
		}
		if err := fw.Flush(); err != nil {
			return
		}
		if chosen != nil {
			comp = xdr.NewCompressor(chosen, s.cpol.adaptive(), 0)
			s.wm.codecs.With(chosen.Name()).Inc()
			defer s.wm.codecs.With(chosen.Name()).Dec()
		}
	}

	flushKick := make(chan struct{}, 1)
	flushDone := make(chan struct{})
	kick := func() {
		select {
		case flushKick <- struct{}{}:
		default:
		}
	}
	go func() { // flusher
		for {
			select {
			case <-flushDone:
				return
			case <-flushKick:
			}
			runtime.Gosched() // let runnable workers append their frames
			select {
			case <-flushKick: // collapse kicks that arrived while yielding
			default:
			}
			wmu.Lock()
			var err error
			if fw.Buffered() > 0 {
				err = fw.Flush()
			}
			wmu.Unlock()
			if err != nil {
				_ = conn.Close() // unblocks the read loop below
				return
			}
		}
	}()

	nw := cap(s.sem)
	tasks := make(chan v2task, nw)
	var workers sync.WaitGroup
	for i := 0; i < nw; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var arena xdr.Arena // this worker's request arrays, reused across requests
			for t := range tasks {
				s.sem <- struct{}{} // global bound across connections
				if t.flags != 0 {
					s.wm.compressedIn(len(t.frame))
					dec, derr := xdr.DecompressFrameV3(t.flags, t.frame)
					xdr.PutFrameBuf(t.frame)
					if derr != nil {
						<-s.sem
						_ = conn.Close() // protocol error: desynced stream
						continue
					}
					t.frame = dec
				}
				resp := s.handle(t.frame, proto, &arena)
				xdr.PutFrameBuf(t.frame)
				var frame []byte
				var ce *xdr.Encoder
				var err error
				if proto >= 3 {
					if comp != nil {
						payload := resp.FramePayloadV3()
						if frame, ce = comp.CompressFrameV3(t.id, payload); ce != nil {
							s.wm.compressedOut(len(frame)-xdr.FrameHeaderLenV3, len(payload))
						}
					}
					if ce == nil {
						frame, err = resp.FrameBytesV3(t.id, 0)
					}
				} else {
					frame, err = resp.FrameBytes(t.id)
				}
				if err == nil {
					wmu.Lock()
					_, err = fw.Write(frame)
					wmu.Unlock()
				}
				xdr.PutEncoder(resp)
				if ce != nil {
					xdr.PutEncoder(ce)
				}
				<-s.sem
				if err != nil {
					_ = conn.Close() // unblocks the read loop below
					continue         // keep draining queued tasks
				}
				kick()
			}
		}()
	}

	for {
		var t v2task
		var err error
		if proto >= 3 {
			t.id, t.flags, t.frame, err = xdr.ReadFrameV3(br)
		} else {
			t.id, t.frame, err = xdr.ReadFrameID(br)
		}
		if err != nil {
			break
		}
		tasks <- t // blocks when workers saturate
	}
	close(tasks)
	workers.Wait()
	// Stop the flusher and commit anything it had not flushed yet (the
	// last worker's kick may still be sitting in the channel). The
	// deferred conn.Close in serveConn runs after this.
	close(flushDone)
	wmu.Lock()
	if fw.Buffered() > 0 {
		_ = fw.Flush()
	}
	wmu.Unlock()
}

// dispatcher is the half of a server that does not know which transport
// it sits behind. The XDR socket server and the shm ring server each embed
// one, so a request is decoded, admitted, invoked and answered by the same
// code whichever rung carried it.
type dispatcher struct {
	c       atomic.Pointer[container.Container]
	tel     *telemetry.Registry
	limiter *resilience.Limiter // admission control; nil admits everything
	m       bindingMetrics

	closeCtx  context.Context // cancelled by Close: aborts admission waits and invokes
	closeStop context.CancelFunc
}

func (d *dispatcher) init(c *container.Container, binding string) {
	d.c.Store(c)
	d.m = newBindingMetrics(telemetry.Or(d.tel), binding)
	d.closeCtx, d.closeStop = context.WithCancel(context.Background())
}

// Retarget points the server at a different container. Node bootstrap
// needs this: endpoint addresses must be known before the final container
// configuration (which advertises them) can be built.
func (d *dispatcher) Retarget(c *container.Container) { d.c.Store(c) }

// handle decodes one request frame, admits and invokes it, and encodes the
// response — or the fault — into a pooled encoder the caller must release
// with xdr.PutEncoder. proto primes the encoder for the caller's framing:
// 2 reserves a v2 header for Encoder.FrameBytes, 3 a v3 header for
// FrameBytesV3, anything else none (the v1 stream and the shm ring frame
// the payload themselves).
//
// Strings are copied out of the frame and arrays into the calling worker's
// arena, so the frame may be released as soon as handle returns. The
// arena's memory is lent to the component for the length of its Invoke
// (the container.Component contract) — results may alias arguments, which
// is why it is taken back only after the response is encoded.
func (d *dispatcher) handle(frame []byte, proto int, arena *xdr.Arena) *xdr.Encoder {
	defer arena.Release()
	e := xdr.GetEncoder()
	reserve := func() {
		switch proto {
		case 3:
			e.ReserveFrameHeaderV3()
		case 2:
			e.ReserveFrameHeader()
		}
	}
	reserve()
	fault := func(err error) *xdr.Encoder {
		e.Reset()
		reserve()
		return encodeFault(e, err)
	}
	instance, op, args, err := decodeRequest(arena, frame)
	if err != nil {
		return fault(err)
	}
	release, err := d.limiter.Acquire(d.closeCtx)
	if err != nil {
		// Shed before execution: the fault message carries the Overloaded
		// token so clients classify it as retryable-elsewhere across the
		// string-typed wire.
		return fault(err)
	}
	h, start := d.m.begin(op)
	out, err := d.c.Load().Invoke(d.closeCtx, instance, op, args)
	release()
	d.m.done(op, h, start, err)
	if err != nil {
		return fault(err)
	}
	if err := encodeResponse(e, out); err != nil {
		return fault(err)
	}
	return e
}

// argCount reads a declared argument or result count and refuses one the
// rest of the frame cannot hold — every entry is at least a name length
// word and a value tag — before it sizes anything.
func argCount(d *xdr.Decoder) (int, error) {
	n, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	if n > xdr.MaxArgs || int(n) > d.Remaining()/8 {
		return 0, errors.New("invoke: absurd argument count")
	}
	return int(n), nil
}

// decodeArgs reads n (name, tagged value) pairs.
func decodeArgs(d *xdr.Decoder, n int) ([]wire.Arg, error) {
	args := make([]wire.Arg, n)
	for i := range args {
		var err error
		if args[i].Name, err = d.String(); err != nil {
			return nil, err
		}
		if args[i].Value, err = xdr.DecodeValue(d); err != nil {
			return nil, err
		}
	}
	return args, nil
}

// decodeRequest decodes a request frame. Arrays among the arguments are
// arena memory when arena is non-nil (see dispatcher.handle).
func decodeRequest(arena *xdr.Arena, frame []byte) (instance, op string, args []wire.Arg, err error) {
	d := arena.Decoder(frame)
	if instance, err = d.String(); err != nil {
		return "", "", nil, err
	}
	if op, err = d.String(); err != nil {
		return "", "", nil, err
	}
	n, err := argCount(d)
	if err != nil {
		return "", "", nil, err
	}
	if args, err = decodeArgs(d, n); err != nil {
		return "", "", nil, err
	}
	return instance, op, args, nil
}

func encodeRequest(e *xdr.Encoder, instance, op string, args []wire.Arg) error {
	if len(args) > xdr.MaxArgs {
		return errors.New("invoke: absurd argument count")
	}
	e.String(instance)
	e.String(op)
	e.Uint32(uint32(len(args)))
	for _, a := range args {
		e.String(a.Name)
		if err := xdr.EncodeValue(e, a.Value); err != nil {
			return err
		}
	}
	return nil
}

func encodeResponse(e *xdr.Encoder, out []wire.Arg) error {
	if len(out) > xdr.MaxArgs {
		return errors.New("invoke: absurd result count")
	}
	e.Uint32(0)
	e.Uint32(uint32(len(out)))
	for _, a := range out {
		e.String(a.Name)
		if err := xdr.EncodeValue(e, a.Value); err != nil {
			return err
		}
	}
	return nil
}

func encodeFault(e *xdr.Encoder, err error) *xdr.Encoder {
	e.Uint32(1)
	e.String(err.Error())
	return e
}

func decodeResponse(frame []byte) ([]wire.Arg, error) {
	d := xdr.NewDecoder(frame)
	status, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if status != 0 {
		msg, err := d.String()
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("invoke: xdr fault: %s", msg)
	}
	n, err := argCount(d)
	if err != nil {
		return nil, err
	}
	return decodeArgs(d, n)
}

// XDRMode selects the wire behavior of an XDRPort.
type XDRMode int

const (
	// XDRModeMux (the default) multiplexes many concurrent in-flight
	// calls over one shared v2 connection.
	XDRModeMux XDRMode = iota
	// XDRModeSerial keeps one pooled v1 connection with a single call in
	// flight — the pre-multiplexing behavior, kept as the E11 baseline
	// and for wire compatibility with v1-only servers.
	XDRModeSerial
	// XDRModeDialPerCall reconnects (v1) for every invocation — the E3
	// ablation quantifying connection reuse.
	XDRModeDialPerCall
)

func (m XDRMode) String() string {
	switch m {
	case XDRModeMux:
		return "mux"
	case XDRModeSerial:
		return "serial"
	case XDRModeDialPerCall:
		return "dial-per-call"
	}
	return fmt.Sprintf("XDRMode(%d)", int(m))
}

// countingWriter counts bytes that reached the underlying writer. The
// retry logic uses it to tell "nothing of this request hit the wire"
// (safe to resend) from "the frame was partially written" (resending
// could invoke a non-idempotent operation twice). It doubles as the
// tx-bytes instrumentation point: tx is a nil-safe telemetry counter.
type countingWriter struct {
	w  io.Writer
	n  int
	tx *telemetry.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += n
	if n > 0 {
		cw.tx.Add(uint64(n))
	}
	return n, err
}

// XDRPort is the client side of the XDR socket binding. In the default
// multiplexed mode it keeps one shared v2 connection over which any
// number of goroutines may Invoke concurrently; each call is tagged with
// a request ID and a demultiplexing goroutine routes responses back to
// their callers, so calls pipeline instead of serializing on round
// trips. See XDRMode for the legacy behaviors.
type XDRPort struct {
	addr     string
	instance string
	mode     XDRMode

	tel   *telemetry.Registry
	chaos *chaos.Injector
	minit sync.Once
	m     bindingMetrics
	wm    xdrWireMetrics

	cpol CompressPolicy // outbound v3 compression stance

	mu    sync.Mutex
	mc    *muxConn // XDRModeMux
	proto int      // mux wire protocol: 0 = newest (v3); 2 after a stale-peer downgrade

	// Serial (v1) connection state. A non-nil conn is always "pooled":
	// a connection that failed mid-call is dropped, so anything that
	// survives to the next Invoke completed its previous exchange.
	conn net.Conn
	cw   *countingWriter
	bw   *bufio.Writer
	br   *bufio.Reader
}

var _ Port = (*XDRPort)(nil)

// NewXDRPort returns a port bound to the XDR endpoint at addr targeting
// the given instance. dialPerCall selects XDRModeDialPerCall; otherwise
// the port is multiplexed (XDRModeMux).
func NewXDRPort(addr, instance string, dialPerCall bool) *XDRPort {
	mode := XDRModeMux
	if dialPerCall {
		mode = XDRModeDialPerCall
	}
	return NewXDRPortMode(addr, instance, mode)
}

// NewXDRPortMode returns a port with an explicit wire mode.
func NewXDRPortMode(addr, instance string, mode XDRMode) *XDRPort {
	return &XDRPort{addr: addr, instance: instance, mode: mode}
}

// Mode reports the port's wire mode.
func (p *XDRPort) Mode() XDRMode { return p.mode }

// SetTelemetry selects the port's metrics registry; it must be called
// before the first Invoke (openPort does). Nil falls back to the process
// default, telemetry.Disabled() switches instrumentation off.
func (p *XDRPort) SetTelemetry(r *telemetry.Registry) { p.tel = r }

// SetChaos attaches a fault injector evaluated before each wire call; it
// must be set before the first Invoke (openPort does). Nil disables
// injection at the cost of one branch.
func (p *XDRPort) SetChaos(in *chaos.Injector) { p.chaos = in }

// SetCompression sets the port's outbound v3 compression policy; it must
// be called before the first Invoke. The zero policy (auto) behaves as
// off on a direct port — openPort resolves a WSDL-advertised `compress`
// capability into an explicit adaptive policy here.
func (p *XDRPort) SetCompression(pol CompressPolicy) { p.cpol = pol }

// SetWireProtocol pins the multiplexed wire protocol version (2 or 3).
// 0 (the default) dials the newest and falls back to v2 transparently
// when the peer rejects the v3 preamble. Must be called before the first
// Invoke; used by the negotiation matrix tests and mixed-version fleets.
func (p *XDRPort) SetWireProtocol(v int) {
	p.mu.Lock()
	p.proto = v
	p.mu.Unlock()
}

func (p *XDRPort) metrics() *bindingMetrics {
	p.minit.Do(func() {
		r := telemetry.Or(p.tel)
		p.m = newBindingMetrics(r, "xdr")
		p.wm = newXDRWireMetrics(r, "client")
	})
	return &p.m
}

// Invoke implements Port. It is safe for concurrent use; in XDRModeMux
// concurrent calls share one connection without serializing on each
// other's round trips.
func (p *XDRPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	if err := p.chaos.Apply(ctx, "xdr", op, p.addr); err != nil {
		return nil, err
	}
	m := p.metrics()
	h, start := m.begin(op)
	ctx, sp := telemetry.Or(p.tel).ChildSpan(ctx, "invoke.xdr")
	var out []wire.Arg
	var err error
	if p.mode == XDRModeMux {
		out, err = p.invokeMux(ctx, op, args)
	} else {
		out, err = p.invokeSerial(ctx, op, args)
	}
	sp.SetError(err)
	sp.End()
	m.done(op, h, start, err)
	return out, err
}

// invokeSerial is the v1 path: the port mutex is held across the whole
// exchange, so one call is in flight at a time.
func (p *XDRPort) invokeSerial(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	e := xdr.GetEncoder()
	defer xdr.PutEncoder(e)
	if err := encodeRequest(e, p.instance, op, args); err != nil {
		return nil, err
	}
	req := e.Bytes()

	p.mu.Lock()
	defer p.mu.Unlock()
	for attempt := 0; ; attempt++ {
		fresh := p.conn == nil
		if err := p.connLocked(ctx); err != nil {
			// A dial failure provably never sent the request: mark it so
			// resilience policies may retry even non-idempotent operations.
			return nil, resilience.MarkUnsent(err)
		}
		if !fresh && p.staleLocked() {
			// The pooled connection was closed by the peer while idle
			// (e.g. a server restart). Nothing has been sent yet, so
			// replacing it is transparent and cannot double-invoke.
			p.dropLocked()
			if err := p.connLocked(ctx); err != nil {
				return nil, resilience.MarkUnsent(err)
			}
			fresh = true
		}
		// Always arm the deadline from this call's context — a zero
		// deadline clears any deadline a previous call left behind, so a
		// pooled connection can never inherit a stale timeout.
		deadline, _ := ctx.Deadline()
		_ = p.conn.SetDeadline(deadline)

		p.cw.n = 0
		frame, err := p.exchangeLocked(req)
		if err != nil {
			wroteNothing := p.cw.n == 0
			p.dropLocked()
			// Transparent retry is restricted to the case where the
			// *first write* on a pooled (reused) connection failed: no
			// byte of the request reached the wire, so resending cannot
			// invoke a non-idempotent operation twice. Mid-frame write
			// failures and response-side errors are surfaced instead —
			// the server may already have executed the call.
			if !fresh && wroteNothing && attempt == 0 {
				continue
			}
			werr := fmt.Errorf("invoke: xdr call %s: %w", op, err)
			if wroteNothing {
				// No byte of the request reached the wire: resending is
				// provably safe, so let policies retry non-idempotent ops.
				return nil, resilience.MarkUnsent(werr)
			}
			return nil, werr
		}
		if p.mode == XDRModeDialPerCall {
			p.dropLocked()
		}
		out, derr := decodeResponse(frame)
		xdr.PutFrameBuf(frame)
		return out, derr
	}
}

func (p *XDRPort) exchangeLocked(req []byte) ([]byte, error) {
	if err := xdr.WriteFrame(p.bw, req); err != nil {
		return nil, err
	}
	if err := p.bw.Flush(); err != nil {
		return nil, err
	}
	return xdr.ReadFramePooled(p.br)
}

func (p *XDRPort) connLocked(ctx context.Context) error {
	if p.conn != nil {
		return nil
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return fmt.Errorf("invoke: xdr dial %s: %w", p.addr, err)
	}
	p.conn = conn
	p.cw = &countingWriter{w: conn, tx: p.wm.tx}
	p.bw = bufio.NewWriterSize(p.cw, xdrBufSize)
	p.br = bufio.NewReaderSize(&countingReader{r: conn, rx: p.wm.rx}, xdrBufSize)
	return nil
}

// staleLocked probes a pooled connection for a peer close with a
// non-blocking read: a FIN/RST that arrived while the connection sat idle
// is detected *before* the request is sent, which is the only moment a
// replacement is provably safe.
func (p *XDRPort) staleLocked() bool {
	if p.br.Buffered() > 0 {
		return true // response bytes with no call in flight: desynced
	}
	_ = p.conn.SetReadDeadline(time.Unix(1, 0)) // already expired
	var scratch [1]byte
	n, err := p.conn.Read(scratch[:])
	_ = p.conn.SetReadDeadline(time.Time{})
	if n > 0 {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false // nothing readable: the healthy idle state
	}
	return true // EOF, reset, or any other read failure
}

func (p *XDRPort) dropLocked() {
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
		p.cw = nil
		p.bw = nil
		p.br = nil
	}
}

// Kind implements Port.
func (p *XDRPort) Kind() wsdl.BindingKind { return wsdl.BindXDR }

// Endpoint implements Port.
func (p *XDRPort) Endpoint() string { return p.addr }

// Close implements Port.
func (p *XDRPort) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropLocked()
	if p.mc != nil {
		p.mc.shutdown(errors.New("invoke: xdr port closed"))
		p.mc = nil
	}
	return nil
}
