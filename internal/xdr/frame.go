package xdr

import (
	"encoding/binary"
	"io"
	"sync"
)

// Wire protocol versions of the XDR socket binding.
//
// v1 (legacy): a connection is a sequence of records, each
//
//	[4-byte big-endian payload length][payload]
//
// with strict request/response alternation — one call in flight per
// connection.
//
// v2 (multiplexed): the client opens the stream with the MagicV2 word,
// after which every frame (in both directions) carries a request ID:
//
//	[4-byte big-endian payload length][8-byte big-endian request id][payload]
//
// Responses echo the request ID of the call they answer and may arrive in
// any order, so many calls can be pipelined over one connection.
//
// v3 (compressed): same request-id framing as v2 plus one flags byte per
// frame carrying the compression codec ID of the payload:
//
//	[4-byte big-endian payload length][8-byte big-endian request id][1-byte flags][payload]
//
// The length word counts the payload as it appears on the wire (after
// compression). Flags 0 means a raw payload; a nonzero low nibble names
// the Codec that compressed it, in which case the payload is
//
//	[4-byte big-endian uncompressed length][codec bytes]
//
// so the receiver can size the destination buffer exactly. The codec is
// negotiated once at dial time: the client opens with MagicV3 followed by
// a 4-byte offered-codec word (bit i set = codec ID i supported; bit 0,
// raw, is always set), the server answers with a 4-byte chosen-codec word
// (the codec ID it will accept and use, 0 = raw only) before its first
// response frame. Whether a given frame is actually compressed remains a
// per-frame sender decision — small or incompressible frames ship raw
// with flags 0.
//
// Version negotiation costs nothing on the wire: MaxLen < MagicV2 <
// MagicV3, so the first word of a connection is unambiguous — a legal v1
// frame length can never collide with either magic, and a server can keep
// serving v1 and v2 clients on the same port.

// MagicV2 is the v2 stream preamble ("HXD2"). It deliberately exceeds
// MaxLen so no v1 frame-length word can be mistaken for it.
const MagicV2 uint32 = 0x48584432

// MagicV3 is the v3 stream preamble ("HXD3"): v2 framing plus a per-frame
// flags byte and dial-time codec negotiation. MaxLen < MagicV2 < MagicV3.
const MagicV3 uint32 = 0x48584433

// MaxArgs bounds the declared argument/result count of one XDR-binding
// call, on both the encode and decode sides. Like MaxLen it guards
// against hostile or corrupt count prefixes.
const MaxArgs = 1 << 16

// maxPooledBuf caps the capacity of buffers retained by the frame and
// encoder pools; anything larger is left to the garbage collector so one
// huge call cannot pin memory forever.
const maxPooledBuf = 32 << 20

// frameBox carries a pooled buffer through sync.Pool, which holds
// pointers: boxing a fresh slice header on every Put would cost one
// allocation per frame, so emptied boxes are recycled too.
type frameBox struct{ b []byte }

var (
	frameBufPool sync.Pool // *frameBox holding a buffer
	frameBoxPool sync.Pool // *frameBox, emptied by GetFrameBuf
)

// GetFrameBuf returns a length-n byte slice, reusing pooled capacity when
// possible. Pair with PutFrameBuf once the frame is fully decoded.
func GetFrameBuf(n int) []byte {
	box, _ := frameBufPool.Get().(*frameBox)
	if box != nil && cap(box.b) < n {
		// Too small for this frame but right for a smaller one, so it goes
		// back — after one more look, or it would be what that look finds.
		// The second look is measured: a call's request and response frames
		// differ by a few bytes and share this pool, so the larger keeps
		// meeting the other's buffer, and allocating each time instead costs
		// BenchmarkXDRInvokeArray64K 3 KB/op (133.6 -> 136.6) and 3% ns/op.
		small := box
		box, _ = frameBufPool.Get().(*frameBox)
		frameBufPool.Put(small)
		if box != nil && cap(box.b) < n {
			frameBufPool.Put(box)
			box = nil
		}
	}
	if box == nil {
		return make([]byte, n)
	}
	b := box.b[:n]
	box.b = nil
	frameBoxPool.Put(box)
	return b
}

// PutFrameBuf returns a buffer obtained from GetFrameBuf (or ReadFrameID /
// ReadFramePooled) to the pool. The caller must not touch b afterwards:
// decoded values never alias the frame (the decoder copies), so releasing
// after decode is safe.
func PutFrameBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	box, _ := frameBoxPool.Get().(*frameBox)
	if box == nil {
		box = new(frameBox)
	}
	box.b = b[:cap(b)]
	frameBufPool.Put(box)
}

// encoderPool recycles Encoders across encode calls.
var encoderPool = sync.Pool{
	New: func() any { return NewEncoder(256) },
}

// GetEncoder returns a reset Encoder from the pool.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns an Encoder to the pool. The bytes previously
// returned by e.Bytes() must no longer be referenced.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > maxPooledBuf {
		return
	}
	encoderPool.Put(e)
}

// WriteMagicV2 writes the v2 stream preamble. Clients send it once,
// immediately after connecting, before the first v2 frame.
func WriteMagicV2(w io.Writer) error {
	var word [4]byte
	binary.BigEndian.PutUint32(word[:], MagicV2)
	_, err := w.Write(word[:])
	return err
}

// WriteFrameID writes one v2 frame: length word, request ID, payload.
// Callers that care about syscall count should hand in a *bufio.Writer
// and flush once per frame — header and payload then coalesce into a
// single write on the socket.
func WriteFrameID(w io.Writer, id uint64, payload []byte) error {
	if len(payload) > MaxLen {
		return ErrTooLarge
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteMagicV3 writes the v3 stream preamble followed by the offered-codec
// word. Clients send both once, immediately after connecting, before the
// first v3 frame; the server's 4-byte chosen-codec answer precedes its
// first response frame.
func WriteMagicV3(w io.Writer, offer uint32) error {
	var words [8]byte
	binary.BigEndian.PutUint32(words[0:4], MagicV3)
	binary.BigEndian.PutUint32(words[4:8], offer|1) // raw is always on offer
	_, err := w.Write(words[:])
	return err
}

// frameHeaderLen is the size of a v2 frame header: 4-byte length word
// plus 8-byte request ID.
const frameHeaderLen = 12

// frameHeaderLenV3 adds the v3 flags byte.
const frameHeaderLenV3 = 13

// FrameHeaderLenV3 is the v3 frame header size, exported for wire-level
// byte accounting.
const FrameHeaderLenV3 = frameHeaderLenV3

// ReserveFrameHeader appends space for a v2 frame header to a fresh
// encoder. Encode the payload after it, then seal the frame with
// FrameBytes — header and payload then live in one contiguous buffer
// that reaches the socket in a single Write, with no per-frame header
// allocation (a stack [12]byte escapes when passed through io.Writer).
func (e *Encoder) ReserveFrameHeader() {
	_ = e.grow(frameHeaderLen)
}

// FrameBytes patches the reserved header with the payload length and
// request ID and returns the complete wire frame. The encoder must have
// been primed with ReserveFrameHeader before the payload was encoded.
func (e *Encoder) FrameBytes(id uint64) ([]byte, error) {
	n := len(e.buf) - frameHeaderLen
	if n < 0 {
		return nil, ErrShortBuffer // header was never reserved
	}
	if n > MaxLen {
		return nil, ErrTooLarge
	}
	binary.BigEndian.PutUint32(e.buf[0:4], uint32(n))
	binary.BigEndian.PutUint64(e.buf[4:12], id)
	return e.buf, nil
}

// ReserveFrameHeaderV3 appends space for a v3 frame header (v2 header
// plus the flags byte) to a fresh encoder; seal with FrameBytesV3.
func (e *Encoder) ReserveFrameHeaderV3() {
	_ = e.grow(frameHeaderLenV3)
}

// FramePayloadV3 returns the logical payload encoded after a
// ReserveFrameHeaderV3 — what a Compressor consumes when deciding whether
// the frame ships raw or compressed.
func (e *Encoder) FramePayloadV3() []byte {
	if len(e.buf) < frameHeaderLenV3 {
		return nil
	}
	return e.buf[frameHeaderLenV3:]
}

// FrameBytesV3 patches the reserved v3 header with the payload length,
// request ID, and flags byte and returns the complete wire frame. The
// encoder must have been primed with ReserveFrameHeaderV3 before the
// payload was encoded.
func (e *Encoder) FrameBytesV3(id uint64, flags byte) ([]byte, error) {
	n := len(e.buf) - frameHeaderLenV3
	if n < 0 {
		return nil, ErrShortBuffer // header was never reserved
	}
	if n > MaxLen {
		return nil, ErrTooLarge
	}
	binary.BigEndian.PutUint32(e.buf[0:4], uint32(n))
	binary.BigEndian.PutUint64(e.buf[4:12], id)
	e.buf[12] = flags
	return e.buf, nil
}

// ReadFrameV3 reads one v3 frame: request ID, flags byte, and the wire
// payload (still compressed when flags name a codec — see
// DecompressFrameV3). The payload comes from the frame pool; release it
// with PutFrameBuf when fully decoded.
func ReadFrameV3(r io.Reader) (id uint64, flags byte, payload []byte, err error) {
	var hdr [frameHeaderLenV3]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxLen {
		return 0, 0, nil, ErrTooLarge
	}
	id = binary.BigEndian.Uint64(hdr[4:12])
	flags = hdr[12]
	payload = GetFrameBuf(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		PutFrameBuf(payload)
		return 0, 0, nil, err
	}
	return id, flags, payload, nil
}

// ReadFrameID reads one v2 frame. The returned payload comes from the
// frame pool; release it with PutFrameBuf when fully decoded.
func ReadFrameID(r io.Reader) (id uint64, payload []byte, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxLen {
		return 0, nil, ErrTooLarge
	}
	id = binary.BigEndian.Uint64(hdr[4:12])
	payload = GetFrameBuf(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		PutFrameBuf(payload)
		return 0, nil, err
	}
	return id, payload, nil
}

// ReadFramePooled reads one v1 record like ReadFrame but into a pooled
// buffer; release with PutFrameBuf when fully decoded.
func ReadFramePooled(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	return readBody(r, binary.BigEndian.Uint32(hdr[:]))
}

// ReadFramePooledAfterLen finishes a v1 record read whose length word has
// already been consumed — the server's version-sniffing path, where the
// first word of a connection turned out to be a v1 length rather than
// MagicV2.
func ReadFramePooledAfterLen(r io.Reader, n uint32) ([]byte, error) {
	return readBody(r, n)
}

func readBody(r io.Reader, n uint32) ([]byte, error) {
	if n > MaxLen {
		return nil, ErrTooLarge
	}
	payload := GetFrameBuf(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		PutFrameBuf(payload)
		return nil, err
	}
	return payload, nil
}
