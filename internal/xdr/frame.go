package xdr

import (
	"encoding/binary"
	"io"
	"sync"
)

// The wire protocol of the XDR socket binding. A client opens the stream
// with the MagicV3 word followed by a 4-byte offered-codec word (bit i set
// = codec ID i supported; bit 0, raw, is always set); the server answers
// with a 4-byte chosen-codec word (the codec ID it will accept and use,
// 0 = raw only) before its first response frame. A stream that opens with
// anything else is refused: the server closes it without decoding a frame.
// After the preamble every frame, in both directions, is
//
//	[4-byte big-endian payload length][8-byte big-endian request id][1-byte flags][payload]
//
// Responses echo the request ID of the call they answer and may arrive in
// any order, so many calls can be pipelined over one connection. The
// length word counts the payload as it appears on the wire (after
// compression). Flags 0 means a raw payload; a nonzero low nibble names
// the Codec that compressed it, in which case the payload is
//
//	[4-byte big-endian uncompressed length][codec bytes]
//
// so the receiver can size the destination buffer exactly. Whether a given
// frame is actually compressed remains a per-frame sender decision — small
// or incompressible frames ship raw with flags 0.
//
// The plain [len][payload] record of WriteFrame/ReadFramePooled carries no
// request ID; the shm binding's handshake uses it.

// MagicV3 is the stream preamble ("HXD3"). It exceeds MaxLen, so a stream
// that opens with a bare record length can never be mistaken for it.
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

// PutFrameBuf returns a buffer obtained from GetFrameBuf (or ReadFrameV3 /
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

// WriteMagicV3 writes the stream preamble followed by the offered-codec
// word. Clients send both once, immediately after connecting, before the
// first frame; the server's 4-byte chosen-codec answer precedes its first
// response frame.
func WriteMagicV3(w io.Writer, offer uint32) error {
	var words [8]byte
	binary.BigEndian.PutUint32(words[0:4], MagicV3)
	binary.BigEndian.PutUint32(words[4:8], offer|1) // raw is always on offer
	_, err := w.Write(words[:])
	return err
}

// FrameHeaderLenV3 is the frame header size: 4-byte length word, 8-byte
// request ID, flags byte. Exported for wire-level byte accounting.
const FrameHeaderLenV3 = 13

// ReserveFrameHeaderV3 appends space for a frame header to a fresh
// encoder. Encode the payload after it, then seal the frame with
// FrameBytesV3 — header and payload then live in one contiguous buffer
// that reaches the socket in a single Write, with no per-frame header
// allocation (a stack array escapes when passed through io.Writer).
func (e *Encoder) ReserveFrameHeaderV3() {
	_ = e.grow(FrameHeaderLenV3)
}

// FramePayloadV3 returns the logical payload encoded after a
// ReserveFrameHeaderV3 — what a Compressor consumes when deciding whether
// the frame ships raw or compressed.
func (e *Encoder) FramePayloadV3() []byte {
	if len(e.buf) < FrameHeaderLenV3 {
		return nil
	}
	return e.buf[FrameHeaderLenV3:]
}

// FrameBytesV3 patches the reserved header with the payload length,
// request ID, and flags byte and returns the complete wire frame. The
// encoder must have been primed with ReserveFrameHeaderV3 before the
// payload was encoded.
func (e *Encoder) FrameBytesV3(id uint64, flags byte) ([]byte, error) {
	n := len(e.buf) - FrameHeaderLenV3
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

// ReadFrameV3 reads one frame: request ID, flags byte, and the wire
// payload (still compressed when flags name a codec — see
// DecompressFrameV3). The payload comes from the frame pool; release it
// with PutFrameBuf when fully decoded.
func ReadFrameV3(r io.Reader) (id uint64, flags byte, payload []byte, err error) {
	var hdr [FrameHeaderLenV3]byte
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

// ReadFramePooled reads one plain record like ReadFrame but into a pooled
// buffer; release with PutFrameBuf when fully decoded.
func ReadFramePooled(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
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
