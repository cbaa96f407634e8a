// Package shmring implements the shared-memory transport under the shm
// invoke binding (DESIGN.md S30): a pair of single-producer
// single-consumer byte rings laid out in one memory segment, carrying
// id-tagged records between a client and a server on the same host.
//
// The segment is plain memory with a fixed layout — no pointers, no Go
// runtime state — so the same code runs over an mmap'd /dev/shm file
// (production, see mmap_unix.go) and over a heap-backed buffer (unit,
// race, and fuzz tests). Each ring has a head (consumer) and tail
// (producer) monotonic byte counter on its own cache line, advanced with
// release stores and observed with acquire loads; a blocked side spins
// briefly, then parks — a futex wait on the counter it is watching on
// Linux (see wait_linux.go), short sleeps elsewhere. Wakers syscall only
// when the shared waiter counter says someone is parked, so a hot ring
// runs entirely in user space and an idle one costs nothing.
//
// Layout (all counters 8-byte aligned, little-endian host order):
//
//	[0:8)    magic
//	[8:16)   generation — chosen by the creating server; clients that
//	         reattach after a server restart see a different value and
//	         must rebind (invoke.Binder invalidation)
//	[16:24)  ring capacity in bytes (power of two)
//	[24:28)  closed flag (either side sets; both sides observe)
//	[28:64)  reserved
//	[64:...) ring A header+data (client→server), then ring B (server→client)
//
// Each ring header holds head@+0 with the space-waiter count@+8 (writers
// parked until head advances) and tail@+64 with the data-waiter
// count@+72 (readers parked until tail advances).
//
// Records are framed as [u32 payload length][u64 request id][payload].
// A ring is strictly SPSC: one goroutine writes, one reads. The two
// rings of a segment give one full-duplex connection.
package shmring

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// Magic identifies a shmring segment ("H2SHMR01").
const Magic uint64 = 0x4832_5348_4d52_3031

const (
	segHeaderSize  = 64
	ringHeaderSize = 128 // head and tail on separate cache lines
	recordHeader   = 12  // u32 length + u64 id

	// DefaultRingBytes sizes each direction's ring. 1MiB publishes a
	// 64Ki-element float64 argument (plus record header and request
	// envelope) in a single store and keeps the whole segment (~2MiB)
	// cheap to create per connection; larger records are not limited by
	// it — they stream through the ring in chunks (see WriteRecord).
	DefaultRingBytes = 1 << 20

	// MaxRecordBytes bounds a single record's payload. Records larger
	// than the ring stream through it in chunks, so the bound is not a
	// capacity limit; it exists to catch corrupt length words before
	// they turn into giant allocations on the read side.
	MaxRecordBytes = 1 << 27

	spinCount    = 256
	parkDelay    = 20 * time.Microsecond
	maxParkDelay = time.Millisecond
)

var (
	// ErrClosed reports an operation on a ring whose segment has been
	// closed by either side.
	ErrClosed = errors.New("shmring: closed")
	// ErrTooLarge reports a record whose payload exceeds MaxRecordBytes.
	ErrTooLarge = errors.New("shmring: record exceeds MaxRecordBytes")
	// ErrBadSegment reports a segment whose header fails validation.
	ErrBadSegment = errors.New("shmring: bad segment")
	// ErrWrongGeneration reports an attach against a segment created by
	// a different server incarnation than the client negotiated with.
	ErrWrongGeneration = errors.New("shmring: generation mismatch")
	// ErrStopped reports a ReadRecordStop whose stop channel closed
	// before the next record began; the ring is left untouched.
	ErrStopped = errors.New("shmring: read stopped")
)

// SegmentSize returns the total byte size of a segment whose rings each
// hold ringBytes of data.
func SegmentSize(ringBytes int) int {
	return segHeaderSize + 2*(ringHeaderSize+ringBytes)
}

// segLife is the Go-local (per-attachment, NOT shared-memory) lifecycle
// of a segment: once this side calls Close, no further ring operation
// may touch the mapping, and the unmap waits until in-flight operations
// drain. The shared closed flag handles cross-process shutdown; this
// handles the local use-after-munmap hazard.
type segLife struct {
	closing atomic.Bool
	ops     atomic.Int64
}

// enter registers an in-flight ring operation; false means this side
// already closed and the mapping may be gone.
func (l *segLife) enter() bool {
	l.ops.Add(1)
	if l.closing.Load() {
		l.ops.Add(-1)
		return false
	}
	return true
}

func (l *segLife) exit() { l.ops.Add(-1) }

// Ring is one direction of a segment: an SPSC circular byte buffer with
// monotonic head/tail counters living in the shared region.
type Ring struct {
	head         *atomic.Uint64 // bytes consumed; advanced by the reader
	tail         *atomic.Uint64 // bytes produced; advanced by the writer
	spaceWaiters *atomic.Uint32 // writers parked until head advances
	dataWaiters  *atomic.Uint32 // readers parked until tail advances
	closed       *atomic.Uint32 // segment-wide flag, shared by both rings
	data         []byte
	mask         uint64
	life         *segLife // local attachment lifecycle, shared by both rings
}

// Segment is an attached shmring region. A holds client→server records,
// B server→client. The creator reads A and writes B; the attacher does
// the opposite.
type Segment struct {
	A, B *Ring

	mem        []byte
	generation uint64
	path       string
	cleanup    func()
	life       segLife
}

func u64at(mem []byte, off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&mem[off]))
}

func u32at(mem []byte, off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&mem[off]))
}

// alignedBuf returns a heap buffer of n bytes with 8-byte alignment
// guaranteed by allocating word storage underneath.
func alignedBuf(n int) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

func ringAt(mem []byte, off, ringBytes int, closed *atomic.Uint32) *Ring {
	return &Ring{
		head:         u64at(mem, off),
		spaceWaiters: u32at(mem, off+8),
		tail:         u64at(mem, off+64),
		dataWaiters:  u32at(mem, off+72),
		closed:       closed,
		data:         mem[off+ringHeaderSize : off+ringHeaderSize+ringBytes],
		mask:         uint64(ringBytes - 1),
	}
}

func segmentOver(mem []byte, ringBytes int) *Segment {
	closed := u32at(mem, 24)
	offA := segHeaderSize
	offB := segHeaderSize + ringHeaderSize + ringBytes
	s := &Segment{
		A:   ringAt(mem, offA, ringBytes, closed),
		B:   ringAt(mem, offB, ringBytes, closed),
		mem: mem,
	}
	s.A.life = &s.life
	s.B.life = &s.life
	return s
}

// initSegment stamps a fresh header over mem and returns the segment.
func initSegment(mem []byte, ringBytes int, generation uint64) (*Segment, error) {
	if ringBytes <= 0 || bits.OnesCount(uint(ringBytes)) != 1 {
		return nil, fmt.Errorf("%w: ring size %d not a power of two", ErrBadSegment, ringBytes)
	}
	if len(mem) < SegmentSize(ringBytes) {
		return nil, fmt.Errorf("%w: %d bytes < segment size %d", ErrBadSegment, len(mem), SegmentSize(ringBytes))
	}
	clear(mem[:SegmentSize(ringBytes)])
	u64at(mem, 8).Store(generation)
	u64at(mem, 16).Store(uint64(ringBytes))
	s := segmentOver(mem, ringBytes)
	s.generation = generation
	// Publish the magic last: an attacher that observes it sees a fully
	// initialised header.
	u64at(mem, 0).Store(Magic)
	return s, nil
}

// attachSegment validates the header of an existing region and returns
// the segment. wantGeneration 0 skips the generation check.
func attachSegment(mem []byte, wantGeneration uint64) (*Segment, error) {
	if len(mem) < segHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadSegment, len(mem))
	}
	if u64at(mem, 0).Load() != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSegment)
	}
	ringBytes := int(u64at(mem, 16).Load())
	if ringBytes <= 0 || bits.OnesCount(uint(ringBytes)) != 1 ||
		len(mem) < SegmentSize(ringBytes) {
		return nil, fmt.Errorf("%w: ring size %d for %d-byte region", ErrBadSegment, ringBytes, len(mem))
	}
	gen := u64at(mem, 8).Load()
	if wantGeneration != 0 && gen != wantGeneration {
		return nil, fmt.Errorf("%w: have %d want %d", ErrWrongGeneration, gen, wantGeneration)
	}
	s := segmentOver(mem, ringBytes)
	s.generation = gen
	return s, nil
}

// NewPair creates a heap-backed segment and returns both attachments —
// the creator's view and the peer's — sharing one region. It exists for
// tests and in-process benchmarking; production segments come from
// Create/Open over /dev/shm.
func NewPair(ringBytes int, generation uint64) (creator, peer *Segment, err error) {
	mem := alignedBuf(SegmentSize(ringBytes))
	creator, err = initSegment(mem, ringBytes, generation)
	if err != nil {
		return nil, nil, err
	}
	peer, err = attachSegment(mem, generation)
	if err != nil {
		return nil, nil, err
	}
	return creator, peer, nil
}

// Generation returns the creating server's incarnation stamp.
func (s *Segment) Generation() uint64 { return s.generation }

// Path returns the backing file path, or "" for heap-backed segments.
func (s *Segment) Path() string { return s.path }

// Closed reports whether either side has closed the segment.
func (s *Segment) Closed() bool {
	if !s.life.enter() {
		return true
	}
	defer s.life.exit()
	return s.A.closed.Load() != 0
}

// Close marks the segment closed — observed by the peer within one park
// interval — waits for this side's in-flight ring operations to drain,
// then releases the mapping. Idempotent and safe to call concurrently
// with ring operations: a blocked reader or writer wakes on the shared
// flag and exits before the unmap happens.
func (s *Segment) Close() error {
	if s.life.closing.Swap(true) {
		return nil
	}
	s.A.closed.Store(1)
	// Kick every parked waiter — ours and the peer's — off its futex;
	// each re-checks the flag and exits. Parked peers on platforms
	// without wakeups notice within one timeout interval instead.
	for _, r := range [...]*Ring{s.A, s.B} {
		osWake(r.head)
		osWake(r.tail)
	}
	for s.life.ops.Load() > 0 {
		time.Sleep(parkDelay)
	}
	if s.cleanup != nil {
		s.cleanup()
		s.cleanup = nil
	}
	return nil
}

// free reports the writable byte count.
func (r *Ring) free() uint64 {
	return uint64(len(r.data)) - (r.tail.Load() - r.head.Load())
}

// copyIn writes p into the circular buffer starting at absolute
// position pos, splitting at the wrap point.
func (r *Ring) copyIn(pos uint64, p []byte) {
	off := pos & r.mask
	n := copy(r.data[off:], p)
	if n < len(p) {
		copy(r.data, p[n:])
	}
}

// copyOut reads len(p) bytes from absolute position pos into p.
func (r *Ring) copyOut(pos uint64, p []byte) {
	off := pos & r.mask
	n := copy(p, r.data[off:])
	if n < len(p) {
		copy(p[n:], r.data)
	}
}

// waitSpace blocks (spin then park) until at least need free bytes are
// available, or the segment closes. need must not exceed the ring
// capacity.
func (r *Ring) waitSpace(need uint64) error {
	delay := parkDelay
	for i := 0; r.free() < need; i++ {
		if r.closed.Load() != 0 {
			return ErrClosed
		}
		if i < spinCount {
			runtime.Gosched()
			continue
		}
		// Park on head: register so the consumer knows to wake us, re-check
		// the condition (the register/re-check order pairs with the
		// consumer's store/check — neither side can miss the other), then
		// block until head moves. The escalating timeout bounds any race
		// the protocol doesn't cover and doubles as the idle backoff on
		// platforms without real wakeups.
		r.spaceWaiters.Add(1)
		if seen := r.head.Load(); r.free() < need && r.closed.Load() == 0 {
			osWait(r.head, seen, delay)
			if delay < maxParkDelay {
				delay *= 2
			}
		}
		r.spaceWaiters.Add(^uint32(0))
	}
	if r.closed.Load() != 0 {
		return ErrClosed
	}
	return nil
}

// waitData blocks until at least need buffered bytes are available.
// After the segment closes, whatever the producer already published
// drains first; a cleanly empty ring then reports io.EOF and a partial
// tail shorter than need reports io.ErrUnexpectedEOF (the peer died
// mid-record). A closed stop ends the wait with ErrStopped; a nil stop
// never does.
func (r *Ring) waitData(need uint64, stop <-chan struct{}) error {
	delay := parkDelay
	for i := 0; r.tail.Load()-r.head.Load() < need; i++ {
		if r.closed.Load() != 0 {
			// Data is re-checked after the flag: producers never publish
			// after setting it, so this is the final word.
			avail := r.tail.Load() - r.head.Load()
			if avail >= need {
				break
			}
			if avail > 0 {
				return io.ErrUnexpectedEOF
			}
			return io.EOF
		}
		if stop != nil {
			select {
			case <-stop:
				return ErrStopped
			default:
			}
		}
		if i < spinCount {
			runtime.Gosched()
			continue
		}
		// Park on tail; mirrors the waitSpace parking protocol.
		r.dataWaiters.Add(1)
		if seen := r.tail.Load(); r.tail.Load()-r.head.Load() < need && r.closed.Load() == 0 {
			osWait(r.tail, seen, delay)
			if delay < maxParkDelay {
				delay *= 2
			}
		}
		r.dataWaiters.Add(^uint32(0))
	}
	return nil
}

// publish release-stores tail, making the bytes before it visible to
// the consumer's acquire load, and wakes a parked reader. Only a parked
// reader costs a syscall; a hot one never registers.
func (r *Ring) publish(tail uint64) {
	r.tail.Store(tail)
	if r.dataWaiters.Load() != 0 {
		osWake(r.tail)
	}
}

// consume advances head past read bytes and wakes a writer parked on a
// full ring; the mirror of publish.
func (r *Ring) consume(head uint64) {
	r.head.Store(head)
	if r.spaceWaiters.Load() != 0 {
		osWake(r.head)
	}
}

// WriteRecord appends one [length|id|payload] record, blocking (spin
// then park) while the consumer frees space. A record that fits the
// ring is published atomically — a single tail store after all bytes
// are in place; a larger record streams through in chunks, the
// consumer draining concurrently. It returns ErrClosed once the
// segment is closed and ErrTooLarge beyond MaxRecordBytes.
func (r *Ring) WriteRecord(id uint64, payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return ErrTooLarge
	}
	if !r.life.enter() {
		return ErrClosed
	}
	defer r.life.exit()
	var hdr [recordHeader]byte
	*(*uint32)(unsafe.Pointer(&hdr[0])) = uint32(len(payload))
	*(*uint64)(unsafe.Pointer(&hdr[4])) = id
	need := uint64(recordHeader + len(payload))
	if need <= uint64(len(r.data)) {
		if err := r.waitSpace(need); err != nil {
			return err
		}
		tail := r.tail.Load()
		r.copyIn(tail, hdr[:])
		r.copyIn(tail+recordHeader, payload)
		r.publish(tail + need)
		return nil
	}
	// Streaming path: the record exceeds the ring capacity, so each
	// chunk is published as soon as it is in place and the reader
	// consumes concurrently, freeing space for the next. An error can
	// only be the segment closing, which stops the reader at the same
	// point — a partially streamed record is never delivered.
	tail := r.tail.Load()
	for _, part := range [2][]byte{hdr[:], payload} {
		for len(part) > 0 {
			if err := r.waitSpace(1); err != nil {
				return err
			}
			n := min(uint64(len(part)), r.free())
			r.copyIn(tail, part[:n])
			tail += n
			r.publish(tail)
			part = part[n:]
		}
	}
	return nil
}

// ReadRecord removes the next record, blocking until one arrives. The
// payload is appended into buf (reusing its capacity) and returned;
// callers pass the previous return value back in for an allocation-free
// steady state. Records wider than the ring are drained in chunks as
// the producer streams them. After the peer closes the segment,
// buffered records drain first, then ReadRecord returns io.EOF (or
// io.ErrUnexpectedEOF mid-record); after this side's own Close it
// returns ErrClosed immediately.
func (r *Ring) ReadRecord(buf []byte) (id uint64, payload []byte, err error) {
	return r.ReadRecordStop(buf, nil)
}

// ReadRecordStop is ReadRecord that gives up with ErrStopped, head
// untouched, if stop closes while it waits for the next record's
// header. A record that has begun always completes, however long it
// streams, so the ring cannot desync.
func (r *Ring) ReadRecordStop(buf []byte, stop <-chan struct{}) (id uint64, payload []byte, err error) {
	if !r.life.enter() {
		return 0, nil, ErrClosed
	}
	defer r.life.exit()
	if err := r.waitData(recordHeader, stop); err != nil {
		return 0, nil, err
	}
	head := r.head.Load()
	var hdr [recordHeader]byte
	r.copyOut(head, hdr[:])
	n := int(*(*uint32)(unsafe.Pointer(&hdr[0])))
	id = *(*uint64)(unsafe.Pointer(&hdr[4]))
	if n > MaxRecordBytes {
		// A corrupt length word means the peer scribbled outside the
		// protocol; poison the segment rather than read garbage.
		r.closed.Store(1)
		osWake(r.head)
		osWake(r.tail)
		return 0, nil, fmt.Errorf("%w: corrupt record length %d", ErrBadSegment, n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if avail := r.tail.Load() - head; uint64(recordHeader+n) <= avail {
		// The whole record is published: one copy, one head advance.
		r.copyOut(head+recordHeader, payload)
		r.consume(head + uint64(recordHeader+n))
		return id, payload, nil
	}
	// The producer is streaming a record wider than what is buffered;
	// drain it in chunks, each consume freeing space for the next
	// publish (essential once the record exceeds the ring capacity).
	r.consume(head + recordHeader)
	for copied := 0; copied < n; {
		if err := r.waitData(1, nil); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // peer died mid-record
			}
			return 0, nil, err
		}
		head = r.head.Load()
		chunk := min(uint64(n-copied), r.tail.Load()-head)
		r.copyOut(head, payload[copied:copied+int(chunk)])
		copied += int(chunk)
		r.consume(head + chunk)
	}
	return id, payload, nil
}
