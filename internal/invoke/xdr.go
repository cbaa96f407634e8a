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

	"harness2/internal/container"
	"harness2/internal/telemetry"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
	"harness2/internal/xdr"
)

// The XDR binding wire protocol. Each message is one request-id-tagged
// frame on a multiplexed connection (see internal/xdr/frame.go for the
// framing and the dial-time codec negotiation).
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

// ErrXDRRefused reports a connection the peer closed or reset with no byte
// of its answer to the dial preamble: whatever listens there does not speak
// this wire. A timeout, or a stream cut inside the answer, is a transport
// fault and not this. There is no quieter dialect to retry with — the
// declared fallback is the next binding on Dial's ladder, which is where a
// resilience policy takes a call that may be repeated (the error classifies
// as transient; it is unsent only under the usual rule, zero bytes written).
var ErrXDRRefused = errors.New("invoke: xdr peer refused the connection preamble")

// ServerOptions configures the binary-binding servers, NewXDRServer and
// NewShmServer alike.
type ServerOptions struct {
	// Telemetry selects the server's metrics registry; nil falls back to
	// the process default, telemetry.Disabled() switches instrumentation
	// off.
	Telemetry *telemetry.Registry
	// Compress is the socket server's compression policy: which codec it
	// accepts from clients (and answers at negotiation) and how its own
	// response frames are compressed. The zero value (auto) accepts the
	// default codec and compresses responses adaptively — but only on
	// connections whose client offered a codec, so raw peers see no
	// change. The shm ring has no link to save time on and ignores it.
	Compress CompressPolicy
}

// XDRServer serves the XDR socket binding for a container's instances.
// Every connection is multiplexed: each request frame is dispatched to a
// bounded worker pool so one slow invocation cannot head-of-line-block
// the connection.
type XDRServer struct {
	dispatcher
	ln net.Listener
	wm xdrWireMetrics

	cpol CompressPolicy

	sem chan struct{} // bounds concurrently executing requests

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// NewXDRServer starts an XDR listener on addr (e.g. "127.0.0.1:0") that
// dispatches to instances of c.
func NewXDRServer(c *container.Container, addr string, opts ServerOptions) (*XDRServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("invoke: xdr listen: %w", err)
	}
	s := &XDRServer{
		ln: ln, conns: make(map[net.Conn]bool),
		cpol: opts.Compress,
		sem:  make(chan struct{}, serverWorkers()),
	}
	s.dispatcher.init(c, "xdr-server", opts.Telemetry)
	s.wm = newXDRWireMetrics(telemetry.Or(opts.Telemetry), "server")
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// serverWorkers is how many requests one binary-binding server executes
// at once, across all of its connections.
func serverWorkers() int {
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

// serveConn accepts exactly one opening: MagicV3 followed by the client's
// offered-codec word. Anything else is refused — counted, and closed
// before a single frame is decoded.
func (s *XDRServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReaderSize(&countingReader{r: conn, rx: s.wm.rx}, xdrBufSize)
	var pre [8]byte
	if _, err := io.ReadFull(br, pre[:4]); err != nil {
		return
	}
	if binary.BigEndian.Uint32(pre[:4]) != xdr.MagicV3 {
		s.wm.refused.Inc()
		return
	}
	if _, err := io.ReadFull(br, pre[4:]); err != nil {
		return
	}
	s.serveMux(conn, br, binary.BigEndian.Uint32(pre[4:]))
}

// serveMux serves one connection with cap(s.sem) persistent workers
// (bounded globally by s.sem) that share one read turn: the holder reads
// one request frame, passes the turn on, then executes the call itself and
// queues its response — tagged with the request ID it answers — on the
// shared frameWriter, so responses leave in any order. Passing the turn
// before executing means a slow call never blocks the connection, and
// when every worker is busy nobody reads, which is the back-pressure. A
// worker takes its s.sem slot only after its read, so an idle connection
// holds none. Persistent workers, rather than a goroutine per frame, keep
// their grown stacks across requests.
//
// The worker that starts a response batch flushes it (frameWriter.
// FlushBatch): workers that are runnable meanwhile queue behind it and
// their responses leave in the same write syscall. A bulk response skips
// the coalescing copy entirely — frameWriter sends it vectored with
// whatever is already buffered.
//
// A read error ends the connection's reading for good, but requests
// already read still execute and their responses are flushed before
// serveConn closes the socket, so a client that half-closes its side
// still hears every answer.
//
// The server first answers the client's offer word with the chosen codec
// — flushed before any request frame is touched, so a client that never
// sees the answer knows the server processed nothing — then decompresses
// flagged request payloads in the workers (parallel CPU) and compresses
// eligible response frames per cpol.
func (s *XDRServer) serveMux(conn net.Conn, br *bufio.Reader, offer uint32) {
	fw := newFrameWriter(conn, s.wm)

	var comp *xdr.Compressor // response compression; nil = raw
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

	turn := make(chan struct{}, 1) // the right to read br; closed once a read fails
	turn <- struct{}{}
	var workers sync.WaitGroup
	for i := 0; i < cap(s.sem); i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var arena xdr.Arena // this worker's request arrays, reused across requests
			for range turn {
				id, flags, frame, err := xdr.ReadFrameV3(br)
				if err != nil {
					close(turn)
					return
				}
				turn <- struct{}{}
				if len(frame) >= largeFrameMin {
					// The worker just handed the turn waits in this P's
					// runnext slot, behind a bulk decode of tens of
					// microseconds; yield so it reaches the socket first.
					runtime.Gosched()
				}
				s.sem <- struct{}{} // global bound across connections
				if flags != 0 {
					s.wm.compressedIn(len(frame))
					dec, derr := xdr.DecompressFrameV3(flags, frame)
					xdr.PutFrameBuf(frame)
					if derr != nil {
						<-s.sem
						_ = conn.Close() // protocol error: desynced stream
						continue
					}
					frame = dec
				}
				resp := s.handle(frame, true, &arena)
				xdr.PutFrameBuf(frame)
				frame, ce, err := s.wm.seal(comp, id, resp)
				lead := false
				if err == nil {
					fw.mu.Lock()
					lead, err = fw.Queue(frame)
					fw.mu.Unlock()
				}
				xdr.PutEncoder(resp)
				if ce != nil {
					xdr.PutEncoder(ce)
				}
				<-s.sem
				if lead {
					err = fw.FlushBatch()
				}
				if err != nil {
					_ = conn.Close() // ends the turn holder's read; queued requests still run
				}
			}
		}()
	}
	workers.Wait()
}

// dispatcher is the half of a server that does not know which transport
// it sits behind. The XDR socket server and the shm ring server each embed
// one, so a request is decoded, admitted, invoked and answered by the same
// code whichever rung carried it.
type dispatcher struct {
	c atomic.Pointer[container.Container]
	m bindingMetrics

	closeCtx  context.Context // cancelled by Close: aborts invokes in flight
	closeStop context.CancelFunc
}

func (d *dispatcher) init(c *container.Container, binding string, tel *telemetry.Registry) {
	d.c.Store(c)
	d.m = newBindingMetrics(telemetry.Or(tel), binding)
	d.closeCtx, d.closeStop = context.WithCancel(context.Background())
}

// Retarget points the server at a different container. Node bootstrap
// needs this: endpoint addresses must be known before the final container
// configuration (which advertises them) can be built.
func (d *dispatcher) Retarget(c *container.Container) { d.c.Store(c) }

// handle decodes one request frame, invokes it, and encodes the response —
// or the fault — into a pooled encoder the caller must release with
// xdr.PutEncoder. framed says the caller will seal a frame header in front
// of the response (Encoder.FrameBytesV3), so room for one is reserved: true
// on a socket, false on the shm ring, whose records frame themselves.
// Admission is the container's (container.Config.Admission), so a shed
// call comes back from Invoke as the Overloaded fault like any other error.
//
// Strings are copied out of the frame and arrays into the calling worker's
// arena, so the frame may be released as soon as handle returns. The
// arena's memory is lent to the component for the length of its Invoke
// (the container.Component contract) — results may alias arguments, which
// is why it is taken back only after the response is encoded.
func (d *dispatcher) handle(frame []byte, framed bool, arena *xdr.Arena) *xdr.Encoder {
	defer arena.Release()
	e := xdr.GetEncoder()
	if framed {
		e.ReserveFrameHeaderV3()
	}
	fault := func(err error) *xdr.Encoder {
		e.Reset()
		if framed {
			e.ReserveFrameHeaderV3()
		}
		return encodeFault(e, err)
	}
	instance, op, args, err := decodeRequest(arena, frame)
	if err != nil {
		return fault(err)
	}
	h, start := d.m.begin(op)
	out, err := d.c.Load().Invoke(d.closeCtx, instance, op, args)
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

// countingWriter counts bytes that reached the underlying writer. The
// unsent rule (invokeBinary) reads it: a request none of which hit the
// wire is safe to resend, while resending a partly written one could run
// a non-idempotent operation twice. It also feeds tx, a nil-safe counter.
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

// XDRPort is the client side of the XDR socket binding. It keeps one
// shared connection over which any number of goroutines may Invoke
// concurrently; each call is tagged with a request ID and a
// demultiplexing goroutine routes responses back to their callers, so
// calls pipeline instead of serializing on round trips.
type XDRPort struct {
	addr     string
	instance string

	wm   xdrWireMetrics
	cpol CompressPolicy // outbound compression stance

	mu sync.Mutex
	mc *muxConn
}

var _ Port = (*XDRPort)(nil)

// NewXDRPort returns a port bound to the XDR endpoint at addr targeting
// the given instance. Of opts it reads Telemetry, for the wire counters,
// and Compress, the outbound compression stance; with no WSDL to follow,
// CompressAuto is off (Dial resolves an advertised `compress` capability
// into an explicit policy before it calls here). The port records no call
// trio or spans of its own: Dial wraps it in the rung's instruments.
func NewXDRPort(addr, instance string, opts Options) *XDRPort {
	return &XDRPort{addr: addr, instance: instance, cpol: opts.Compress,
		wm: newXDRWireMetrics(telemetry.Or(opts.Telemetry), "client")}
}

// Kind implements Port.
func (p *XDRPort) Kind() wsdl.BindingKind { return wsdl.BindXDR }

// Endpoint implements Port.
func (p *XDRPort) Endpoint() string { return p.addr }

// Close implements Port.
func (p *XDRPort) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mc != nil {
		p.mc.shutdown(errors.New("invoke: xdr port closed"))
		p.mc = nil
	}
	return nil
}
