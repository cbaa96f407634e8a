package invoke

// The shared-memory binding: the fourth rung of the binding ladder,
// between in-process JavaObject access and the XDR socket binding. It
// carries exactly the XDR request/response records of the socket binding
// (decodeRequest/encodeResponse — the wire contract is shared), but over
// a pair of mmap'd SPSC rings (internal/shmring) instead of a TCP
// connection, eliminating the syscall-per-exchange and kernel buffer
// copies that dominate same-host XDR round trips.
//
// Rendezvous is a unix-domain socket: the advertised address is
// shm:<hostname>:<socket path>. A client that shares the host connects,
// and the server creates a fresh per-connection segment in /dev/shm and
// sends its path and the server's generation stamp down the socket. The
// socket then goes quiet and serves as same-host proof (connecting at
// all requires the shared filesystem) and as the liveness channel: when
// either process dies, the peer's read returns and the segment is
// closed, unblocking every ring waiter. A server restart mints a new
// generation; a port that knew the old one refuses the new segment with
// ErrStaleShmGeneration, which invalidates stale Binder mappings.
//
// Dial-time negotiation is soft everywhere: a hostname mismatch, an
// unsupported platform, or a failed handshake makes openShm report the
// shm port unusable (not an error), so Dial falls through to XDR.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harness2/internal/container"
	"harness2/internal/shmring"
	"harness2/internal/wire"
	"harness2/internal/wsdl"
	"harness2/internal/xdr"
)

// ErrStaleShmGeneration reports a shm handshake whose generation stamp
// differs from the one the port bound to: the server restarted behind
// the same socket path. The error is marked unsent (the request never
// left the client), so resilience policies may retry, and it propagates
// through Binder.Invoke's invalidate-on-error path so the stale binding
// is dropped and rebound.
var ErrStaleShmGeneration = errors.New("invoke: shm endpoint generation changed (server restarted)")

// ShmAddrPrefix starts every advertised shm endpoint address.
const ShmAddrPrefix = "shm:"

// ShmAddr builds the advertised address for a handshake socket on this
// host.
func ShmAddr(hostname, sockPath string) string {
	return ShmAddrPrefix + hostname + ":" + sockPath
}

// ParseShmAddress splits shm:<hostname>:<socket path>.
func ParseShmAddress(addr string) (hostname, sockPath string, err error) {
	rest, ok := strings.CutPrefix(addr, ShmAddrPrefix)
	if !ok {
		return "", "", fmt.Errorf("invoke: %q is not a shm address", addr)
	}
	i := strings.IndexByte(rest, ':')
	if i <= 0 || i == len(rest)-1 {
		return "", "", fmt.Errorf("invoke: malformed shm address %q", addr)
	}
	return rest[:i], rest[i+1:], nil
}

var shmSockSeq atomic.Uint64

// ShmServer serves the shared-memory binding for a container's
// instances: a handshake listener plus one shmring segment and worker
// loop per connected client.
type ShmServer struct {
	dispatcher
	ln         net.Listener
	sockPath   string
	hostname   string
	generation uint64

	sem chan struct{}

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]*shmring.Segment
	wg     sync.WaitGroup
}

// NewShmServer starts a shm handshake listener for container c. An empty
// sockPath picks a fresh socket in the segment directory. On platforms
// without mmap support it returns an error; callers advertise the
// binding only when the server started. Of opts only Telemetry applies.
func NewShmServer(c *container.Container, sockPath string, opts ServerOptions) (*ShmServer, error) {
	if !shmring.Supported() {
		return nil, errors.New("invoke: shm binding unsupported on this platform")
	}
	if sockPath == "" {
		sockPath = filepath.Join(shmring.SegmentDir(),
			fmt.Sprintf("h2shm-%d-%d.sock", os.Getpid(), shmSockSeq.Add(1)))
	}
	_ = os.Remove(sockPath) // a previous incarnation's socket is dead by definition
	ln, err := net.Listen("unix", sockPath)
	if err != nil {
		return nil, fmt.Errorf("invoke: shm listen: %w", err)
	}
	hostname, err := os.Hostname()
	if err != nil {
		hostname = "localhost"
	}
	s := &ShmServer{
		ln: ln, sockPath: sockPath, hostname: hostname,
		// The generation stamp must differ across restarts of the same
		// socket path; wall-clock nanoseconds at startup do.
		generation: uint64(time.Now().UnixNano()) | 1,
		sem:        make(chan struct{}, serverWorkers()),
		conns:      make(map[net.Conn]*shmring.Segment),
	}
	s.dispatcher.init(c, "shm-server", opts.Telemetry)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the advertised endpoint address (shm:<host>:<socket>).
func (s *ShmServer) Addr() string { return ShmAddr(s.hostname, s.sockPath) }

// SockPath returns the handshake socket path.
func (s *ShmServer) SockPath() string { return s.sockPath }

// Generation returns the server's incarnation stamp.
func (s *ShmServer) Generation() uint64 { return s.generation }

// Close stops the listener and all segments, then waits for in-flight
// handlers to drain.
func (s *ShmServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for conn, seg := range s.conns {
		_ = seg.Close()
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.closeStop()
	s.wg.Wait()
	_ = os.Remove(s.sockPath)
	return err
}

func (s *ShmServer) acceptLoop() {
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
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn owns one client: create the segment, hand its path over the
// socket, then serve ring records until the segment closes (client
// disconnect, server Close, or ring poisoning).
func (s *ShmServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	// Runs before wg.Done: closing conn ends the watcher's read, and only
	// once the watcher is out of seg.Close — which unlinks the segment file
	// — may Close be told this client is done.
	var watcher sync.WaitGroup
	defer watcher.Wait()
	defer conn.Close()

	seg, err := shmring.Create("", shmring.DefaultRingBytes, s.generation)
	if err != nil {
		return
	}
	defer seg.Close()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = seg
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	e := xdr.GetEncoder()
	e.String(seg.Path())
	e.Uint64(s.generation)
	err = xdr.WriteFrame(conn, e.Bytes())
	xdr.PutEncoder(e)
	if err != nil {
		return
	}

	watcher.Add(1)
	go func() {
		defer watcher.Done()
		watch(conn, seg) // the client going away unblocks the ring loops below
	}()

	s.serveSegment(seg)
}

// serveSegment serves one client's request records with cap(s.sem)
// workers (bounded globally by s.sem) that share one read turn on ring
// A: the holder reads one record, passes the turn on, then executes the
// call itself and returns the response on ring B, tagged with its
// request id. Passing the turn before executing means a slow call never
// blocks the segment, and when every worker is busy nobody reads, which
// is the back-pressure. XDRServer.serveMux has the same shape over its
// socket.
func (s *ShmServer) serveSegment(seg *shmring.Segment) {
	var wmu sync.Mutex // serializes producers on the SPSC response ring
	turn := make(chan struct{}, 1)
	turn <- struct{}{}
	var workers sync.WaitGroup
	for i := 0; i < cap(s.sem); i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var arena xdr.Arena
			for {
				// Each record needs its own buffer (workers hold them
				// concurrently); the frame pool recycles them across requests.
				<-turn
				id, frame, err := seg.A.ReadRecord(xdr.GetFrameBuf(0))
				turn <- struct{}{}
				if err != nil {
					return
				}
				s.sem <- struct{}{}
				resp := s.handle(frame, false, &arena)
				<-s.sem // bounds execution, not a ring write that waits on a client
				xdr.PutFrameBuf(frame)
				wmu.Lock()
				err = seg.B.WriteRecord(id, resp.Bytes())
				if errors.Is(err, shmring.ErrTooLarge) {
					// An oversized response faults its one call; closing the
					// segment would fail every other in-flight call too.
					f := xdr.GetEncoder()
					encodeFault(f, fmt.Errorf("invoke: shm response %d bytes exceeds the %d-byte record limit",
						resp.Len(), shmring.MaxRecordBytes))
					err = seg.B.WriteRecord(id, f.Bytes())
					xdr.PutEncoder(f)
				}
				wmu.Unlock()
				xdr.PutEncoder(resp)
				if err != nil {
					_ = seg.Close() // ends the other workers' reads
				}
			}
		}()
	}
	workers.Wait()
}

// shmConn is one attached segment plus the calls table of the Invokes
// routed through it, whose callers take turns reading ring B (see
// await). A late turn holder on a replaced segment so fails only calls in
// flight on its own segment, never those registered after a re-handshake.
type shmConn struct {
	calls
	seg  *shmring.Segment
	turn chan struct{} // one token: the right to read ring B
	wmu  sync.Mutex    // serializes producers on the SPSC request ring A
}

// send writes request id as one record on ring A. A WriteRecord error
// is the segment closing, or a record over the limit that never started;
// the server's reader stops at the same close and never delivers a
// partly streamed record, so no byte of a failed request counts as sent.
func (c *shmConn) send(_ context.Context, id uint64, e *xdr.Encoder) (bool, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return false, c.seg.A.WriteRecord(id, e.FramePayloadV3())
}

// await returns the reply to call id: delivered on ch by whichever
// caller holds the read turn, or read off ring B by this caller once the
// turn is its own. The holder hands every other record to its caller and
// passes the turn on when its own arrives, its context ends, or the
// segment fails. A caller whose context ends leaves its entry to drain.
func (c *shmConn) await(ctx context.Context, id uint64, ch chan reply) (reply, error) {
	select {
	case r := <-ch:
		return r, nil
	case <-ctx.Done():
		go c.drain(id, ch)
		return reply{}, ctx.Err()
	case <-c.turn:
	}
	defer func() { c.turn <- struct{}{} }()
	select {
	case r := <-ch: // delivered by the previous holder
		return r, nil
	default:
	}
	buf := xdr.GetFrameBuf(0)
	for {
		rid, payload, err := c.seg.B.ReadRecordStop(buf, ctx.Done())
		if errors.Is(err, shmring.ErrStopped) {
			// The reply is still due: drain reads it, so replies nobody
			// waits for never fill ring B and stall the server's writers.
			go c.drain(id, ch)
			return reply{}, ctx.Err()
		}
		if err != nil {
			c.fail(errors.New("invoke: shm connection lost"))
			return <-ch, nil // whoever removed our entry answers on ch
		}
		switch w := c.take(rid); {
		case rid == id:
			if w == nil {
				<-ch // a failure raced this reply in: the reply wins
			}
			return reply{frame: payload}, nil
		case w == nil:
			buf = payload // nobody waits for this id; reuse the buffer
		default:
			w <- reply{frame: payload}
			buf = xdr.GetFrameBuf(0)
		}
	}
}

// drain awaits the reply to a call its caller abandoned and releases it.
func (c *shmConn) drain(id uint64, ch chan reply) {
	r, _ := c.await(context.Background(), id, ch)
	xdr.PutFrameBuf(r.frame)
	replyChs.Put(ch)
}

// ShmPort is the client side of the shared-memory binding. Like the
// multiplexed XDRPort it supports any number of concurrent Invokes: each
// call tags its request record with an id, and the caller holding the
// segment's read turn routes response records back to their callers.
type ShmPort struct {
	addr     string // advertised shm:<host>:<socket> address
	sockPath string
	instance string

	mu         sync.Mutex // connection lifecycle
	conn       net.Conn
	cur        *shmConn // live segment + its pending calls; nil before dial
	generation uint64   // pinned at first handshake; 0 = not yet bound
	closed     bool
}

var _ Port = (*ShmPort)(nil)

// NewShmPort returns an unconnected port for the advertised shm address,
// targeting the given instance. Its first Invoke performs the handshake;
// Dial performs it at once, so that it can fall back to XDR.
func NewShmPort(addr, instance string) (*ShmPort, error) {
	_, sockPath, err := ParseShmAddress(addr)
	if err != nil {
		return nil, err
	}
	return &ShmPort{addr: addr, sockPath: sockPath, instance: instance}, nil
}

// Generation returns the server incarnation the port is bound to, or 0
// before the first handshake.
func (p *ShmPort) Generation() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.generation
}

// session returns a live connection, handshaking (or re-handshaking
// after a connection loss) as needed. A re-handshake that reaches a
// different server incarnation fails with ErrStaleShmGeneration rather
// than silently rebinding: the caller's Binder owns rediscovery.
func (p *ShmPort) session(ctx context.Context) (binaryConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("invoke: shm port closed")
	}
	if p.cur != nil && !p.cur.seg.Closed() && !p.cur.failed() {
		return p.cur, nil
	}
	p.dropLocked()

	var d net.Dialer
	conn, err := d.DialContext(ctx, "unix", p.sockPath)
	if err != nil {
		return nil, fmt.Errorf("invoke: shm dial %s: %w", p.sockPath, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetReadDeadline(deadline)
	}
	frame, err := xdr.ReadFramePooled(bufio.NewReaderSize(conn, 256))
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("invoke: shm handshake: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	dec := xdr.NewDecoder(frame)
	segPath, err := dec.String()
	var gen uint64
	if err == nil {
		gen, err = dec.Uint64()
	}
	xdr.PutFrameBuf(frame)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("invoke: shm handshake: %w", err)
	}
	if p.generation != 0 && gen != p.generation {
		_ = conn.Close()
		return nil, fmt.Errorf("invoke: shm rebind %s: %w", p.sockPath, ErrStaleShmGeneration)
	}
	seg, err := shmring.Open(segPath, gen)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("invoke: shm attach: %w", err)
	}
	c := &shmConn{seg: seg, turn: make(chan struct{}, 1)}
	c.turn <- struct{}{}
	p.conn = conn
	p.cur = c
	p.generation = gen

	go watch(conn, seg) // a dead server unblocks the turn holder and any writer stuck on a full ring
	return c, nil
}

// watch is a segment's liveness watcher: the handshake socket carries no
// data after the handshake, so a read returns only when the peer goes
// away, and then the segment is closed.
func watch(conn net.Conn, seg *shmring.Segment) {
	var b [1]byte
	for {
		if _, err := conn.Read(b[:]); err != nil {
			_ = seg.Close()
			return
		}
	}
}

// Invoke implements Port; safe for concurrent use.
func (p *ShmPort) Invoke(ctx context.Context, op string, args []wire.Arg) ([]wire.Arg, error) {
	return invokeBinary(ctx, p, p.instance, op, args)
}

// Kind implements Port.
func (p *ShmPort) Kind() wsdl.BindingKind { return wsdl.BindShm }

// Endpoint implements Port.
func (p *ShmPort) Endpoint() string { return p.addr }

func (p *ShmPort) dropLocked() {
	if p.cur != nil {
		_ = p.cur.seg.Close()
		p.cur = nil
	}
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
	}
}

// Close implements Port.
func (p *ShmPort) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.cur != nil {
		p.cur.fail(errors.New("invoke: shm port closed"))
	}
	p.dropLocked()
	return nil
}
